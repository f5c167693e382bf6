//! Multi-switch scale sweep: the speedup figure behind in-network
//! aggregation.
//!
//! `repro scale` runs the collective reduction across a grid of node
//! counts × fat-tree radices × handler placements, times the host-side
//! MST baseline against the active fabric, and emits the
//! `bench-scale-v1` JSON document this module defines. `analyze scale`
//! renders the same speedup table offline. All values are simulated
//! (integral picoseconds) — the document is deterministic and safe to
//! commit or diff.

use asan_sim::SimTime;

use crate::json::{self, Value};

/// One cell of the scale sweep: a node count on a topology, reduced
/// under one handler placement, with the host-side MST baseline of the
/// same fabric alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleSample {
    /// Participating hosts.
    pub hosts: u64,
    /// Topology label ([`asan_net::TopoSpec::label`], e.g.
    /// "fat-tree-r4").
    pub topo: String,
    /// Handler placement label ([`asan_core::HandlerPlacement::label`]).
    pub placement: String,
    /// Host-side MST completion time.
    pub normal: SimTime,
    /// Active in-fabric completion time.
    pub active: SimTime,
}

impl ScaleSample {
    /// Speedup of the active fabric over the host-side baseline.
    pub fn speedup(&self) -> f64 {
        self.normal.as_ps() as f64 / self.active.as_ps().max(1) as f64
    }
}

/// A full scale document: the grid in sweep order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleDoc {
    /// Sweep cells, in canonical hosts × topology × placement order.
    pub samples: Vec<ScaleSample>,
}

/// Renders the scale JSON document (`bench-scale-v1`). Fixed field
/// order, integral values only.
pub fn scale_json(samples: &[ScaleSample]) -> String {
    let mut out = String::from("{\"schema\":\"bench-scale-v1\",\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"hosts\":{},\"topo\":\"{}\",\"placement\":\"{}\",\
             \"normal_ps\":{},\"active_ps\":{}}}",
            s.hosts,
            s.topo,
            s.placement,
            s.normal.as_ps(),
            s.active.as_ps()
        ));
    }
    out.push_str("]}\n");
    out
}

/// Parses a scale document produced by [`scale_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn parse_scale_doc(text: &str) -> Result<ScaleDoc, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "bench-scale-v1" {
        return Err(format!("unknown scale schema {schema:?}"));
    }
    let field = |v: &Value, k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric field {k:?}"))
    };
    let text_field = |v: &Value, k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {k:?}"))
    };
    let arr = doc
        .get("samples")
        .and_then(Value::as_arr)
        .ok_or("missing \"samples\" array")?;
    let mut samples = Vec::new();
    for s in arr {
        samples.push(ScaleSample {
            hosts: field(s, "hosts")?,
            topo: text_field(s, "topo")?,
            placement: text_field(s, "placement")?,
            normal: SimTime::from_ps(field(s, "normal_ps")?),
            active: SimTime::from_ps(field(s, "active_ps")?),
        });
    }
    Ok(ScaleDoc { samples })
}

/// Renders the human speedup table: one row per sweep cell, active
/// latency against the host-side MST of the same node count and
/// fabric.
pub fn scale_report(doc: &ScaleDoc) -> String {
    let mut out = String::new();
    out.push_str("== Scale: in-network aggregation vs host-side MST ==\n");
    out.push_str(&format!(
        "{:<8} {:<14} {:<10} {:>14} {:>14} {:>9}\n",
        "hosts", "topology", "placement", "normal (us)", "active (us)", "speedup"
    ));
    for s in &doc.samples {
        out.push_str(&format!(
            "{:<8} {:<14} {:<10} {:>14.2} {:>14.2} {:>8.2}x\n",
            s.hosts,
            s.topo,
            s.placement,
            s.normal.as_ps() as f64 / 1e6,
            s.active.as_ps() as f64 / 1e6,
            s.speedup(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(hosts: u64, placement: &str) -> ScaleSample {
        ScaleSample {
            hosts,
            topo: "fat-tree-r4".to_string(),
            placement: placement.to_string(),
            normal: SimTime::from_us(4),
            active: SimTime::from_us(1),
        }
    }

    #[test]
    fn scale_json_roundtrips_through_the_parser() {
        let samples = vec![sample(64, "nca"), sample(256, "striped")];
        let doc = parse_scale_doc(&scale_json(&samples)).expect("parses");
        assert_eq!(doc.samples, samples);
    }

    #[test]
    fn scale_report_renders_speedups() {
        let doc = ScaleDoc {
            samples: vec![sample(64, "root")],
        };
        let t = scale_report(&doc);
        assert!(t.contains("fat-tree-r4"), "table:\n{t}");
        assert!(t.contains("root"));
        assert!(t.contains("4.00x"), "speedup column:\n{t}");
    }

    #[test]
    fn parse_scale_doc_rejects_malformed_input() {
        assert!(parse_scale_doc("{}").is_err());
        assert!(parse_scale_doc("not json").is_err());
        assert!(parse_scale_doc("{\"schema\":\"bench-scale-v1\"}").is_err());
        assert!(
            parse_scale_doc("{\"schema\":\"bench-scale-v9\",\"samples\":[]}").is_err(),
            "unknown schema must be rejected"
        );
    }
}
