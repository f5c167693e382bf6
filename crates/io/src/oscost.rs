//! Operating-system I/O overhead model.
//!
//! §4: "We account for I/O-related operating system overhead by charging
//! 30 us of fixed cost per request and 0.27 us/KB for each unbuffered
//! disk request. These numbers were obtained from measurement and
//! calculation and were validated against measurements presented in
//! [Chung et al., MS-TR-2000-55]."

use asan_sim::SimDuration;

/// The fixed-cost OS model for I/O requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsCost {
    /// Fixed cost per I/O request (syscall, request setup, interrupt).
    pub per_request: SimDuration,
    /// Marginal cost per KB transferred (unbuffered path), in whole
    /// nanoseconds.
    pub per_kb: SimDuration,
    /// Fixed cost to issue a request whose data is delivered to an
    /// active switch: the buffer mapping is pre-established and no
    /// completion interrupt copies data, so only a light descriptor
    /// post remains (§5 Tar: "most of the busy time in the normal cases
    /// is disk I/O-related overhead like interrupt processing, all of
    /// which is eliminated in the active switch version").
    pub active_request: SimDuration,
}

impl OsCost {
    /// The paper's constants: 30 µs + 0.27 µs/KB.
    pub fn paper() -> Self {
        OsCost {
            per_request: SimDuration::from_us(30),
            per_kb: SimDuration::from_ns(270),
            active_request: SimDuration::from_us(5),
        }
    }

    /// A reduced-cost model for requests *initiated by an active switch
    /// handler* (§2.1: the switch runs a small embedded kernel; §5 Tar:
    /// "most of the busy time in the normal cases is disk I/O-related
    /// overhead like interrupt processing, all of which is eliminated in
    /// the active switch version"). The TCA-side request path has no
    /// general-purpose OS: a fraction of the fixed cost remains.
    pub fn switch_kernel() -> Self {
        OsCost {
            per_request: SimDuration::from_us(3),
            per_kb: SimDuration::from_ns(27),
            active_request: SimDuration::from_us(3),
        }
    }

    /// Host CPU time consumed by a request of `bytes` bytes.
    pub fn request_cost(&self, bytes: u64) -> SimDuration {
        self.per_request + self.per_kb_cost(bytes)
    }

    /// The per-KB share of a request of `bytes` bytes, rounded to the
    /// nearest picosecond.
    pub fn per_kb_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * self.per_kb.as_ns() as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = OsCost::paper();
        // A 64 KB request: 30 us + 64 * 0.27 us = 47.28 us.
        assert_eq!(c.request_cost(65536).as_ns(), 47_280);
        // A zero-byte request still pays the fixed cost.
        assert_eq!(c.request_cost(0), SimDuration::from_us(30));
    }

    #[test]
    fn per_kb_cost_is_fractional() {
        let c = OsCost::paper();
        // 512 B = half a KB = 135 ns marginal.
        assert_eq!(c.request_cost(512).as_ns(), 30_135);
    }

    #[test]
    fn switch_kernel_is_much_cheaper() {
        let host = OsCost::paper().request_cost(65536);
        let sw = OsCost::switch_kernel().request_cost(65536);
        assert!(sw.as_ns() * 5 < host.as_ns());
    }
}
