//! Cluster topology and the switched fabric timing model.
//!
//! A topology is a graph of hosts, switches and TCAs joined by
//! full-duplex links. [`Fabric`] owns the per-direction [`Link`] state
//! and per-switch routing latency, and computes packet delivery times
//! with virtual cut-through forwarding: a switch begins forwarding as
//! soon as it has the header (plus the 100 ns routing latency of §4),
//! rather than after store-and-forward of the whole packet.
//!
//! Topologies come from two places: hand-wired [`TopologyBuilder`]
//! calls, or a declarative [`TopoSpec`] (single switch, fat tree,
//! explicit edge list) that also returns a [`TopoMap`] describing the
//! generated structure — which host hangs off which leaf, each
//! switch's parent, and the root — so higher layers can place handlers
//! without re-deriving the shape.
//!
//! Routing is deterministic shortest-path. On a tree (every
//! [`TopoSpec::single_switch`] and [`TopoSpec::fat_tree`], and any
//! explicit spec without a cycle) each pair has exactly one path, and a
//! route is read off that path from each node's parent link and Euler
//! interval, with no per-destination storage. On a graph with cycles,
//! one breadth-first search per destination fills that destination's
//! next-hop row, visiting neighbors in edge-insertion order so
//! equal-length paths always resolve the same way (see
//! docs/DETERMINISM.md); a row is built the first time a packet heads
//! for its destination. Multi-hop packets pay per-link
//! credits at *each* hop; with [`TopoSpec`]-generated fabrics an
//! upstream link's credit is held until the packet has left the
//! *downstream* hop (chained backpressure), while hand-built and
//! single-switch fabrics keep the seed behavior of freeing the credit
//! at that hop's own arrival.
//!
//! Packet *data* is not carried here — the cluster layer moves the real
//! bytes; the fabric answers "when does it arrive, and what did it cost".

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use asan_sim::stats::Traffic;
use asan_sim::{SimDuration, SimTime};

use crate::link::{Link, LinkConfig, LinkTiming};
use crate::packet::NodeId;

/// What a node is; affects nothing in the fabric timing, but lets the
/// cluster attach the right component models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A compute node (host CPU + HCA).
    Host,
    /// A network switch (possibly active).
    Switch,
    /// A target channel adapter fronting the I/O subsystem.
    Tca,
}

/// Per-switch forwarding parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchSpec {
    /// Routing decision latency (100 ns in §4).
    pub routing_latency: SimDuration,
    /// Virtual cut-through (§4): forward as soon as the header has been
    /// routed. When disabled the switch stores the whole packet before
    /// forwarding (the classic baseline the paper's switch improves on).
    pub cut_through: bool,
}

impl SwitchSpec {
    /// The paper's switch: 100 ns routing latency, virtual cut-through.
    pub fn paper() -> Self {
        SwitchSpec {
            routing_latency: SimDuration::from_ns(100),
            cut_through: true,
        }
    }

    /// A store-and-forward variant for ablation.
    pub fn store_and_forward() -> Self {
        SwitchSpec {
            cut_through: false,
            ..SwitchSpec::paper()
        }
    }
}

/// Why a topology cannot be finalized into a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoError {
    /// The graph has no nodes at all.
    EmptyTopology,
    /// Some node cannot reach some other node.
    Disconnected {
        /// A node with no route…
        from: NodeId,
        /// …to this destination.
        to: NodeId,
    },
    /// The same unordered node pair was connected twice; parallel links
    /// would make shortest-path tie-breaking depend on insertion
    /// accidents, so they are rejected outright.
    DuplicateLink {
        /// One endpoint of the repeated pair.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A switch with zero connected ports: it can forward nothing and
    /// is always a spec bug.
    IsolatedSwitch(NodeId),
    /// A [`TopoSpec`] parameter is out of range (zero-radix fat tree,
    /// edge referencing an unknown node, …).
    BadSpec(&'static str),
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopoError::EmptyTopology => write!(f, "topology has no nodes"),
            TopoError::Disconnected { from, to } => {
                write!(f, "topology is disconnected: {from} cannot reach {to}")
            }
            TopoError::DuplicateLink { a, b } => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopoError::IsolatedSwitch(s) => {
                write!(f, "switch {s} has zero connected ports")
            }
            TopoError::BadSpec(why) => write!(f, "bad topology spec: {why}"),
        }
    }
}

impl std::error::Error for TopoError {}

/// Builder for a cluster topology.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    switch_specs: Vec<Option<SwitchSpec>>,
    edges: Vec<(usize, usize, LinkConfig)>,
    hop_backpressure: bool,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    fn add_node(&mut self, kind: NodeKind, spec: Option<SwitchSpec>) -> NodeId {
        let id = NodeId(u16::try_from(self.kinds.len()).expect("node count fits u16"));
        self.kinds.push(kind);
        self.switch_specs.push(spec);
        id
    }

    /// Adds a host node.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host, None)
    }

    /// Adds a switch node.
    pub fn add_switch(&mut self, spec: SwitchSpec) -> NodeId {
        self.add_node(NodeKind::Switch, Some(spec))
    }

    /// Adds a TCA node.
    pub fn add_tca(&mut self) -> NodeId {
        self.add_node(NodeKind::Tca, None)
    }

    /// Connects two nodes with a full-duplex link (one [`Link`] per
    /// direction, both using `cfg`).
    pub fn connect(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> &mut Self {
        assert!((a.0 as usize) < self.kinds.len(), "unknown node {a}");
        assert!((b.0 as usize) < self.kinds.len(), "unknown node {b}");
        assert_ne!(a, b, "self-loop");
        self.edges.push((a.0 as usize, b.0 as usize, cfg));
        self
    }

    /// Selects the credit-drain model for multi-hop routes. `false`
    /// (the default, and the seed behavior every single-switch golden
    /// digest is pinned to) frees each hop's credit at that hop's own
    /// arrival; `true` chains the drain to the packet leaving the
    /// *next* hop, so congestion on a downstream link backpressures
    /// upstream senders hop by hop.
    pub fn set_hop_backpressure(&mut self, on: bool) -> &mut Self {
        self.hop_backpressure = on;
        self
    }

    /// Numbers the links and indexes them by node: links come in
    /// `(a→b, b→a)` pairs at even/odd indices in edge order, so the
    /// reverse of link `l` is `l ^ 1`. Returns `out_links[u]`, the links
    /// leaving `u` in edge-insertion order, and `link_to[l]`, link `l`'s
    /// far end.
    ///
    /// # Errors
    ///
    /// [`TopoError::DuplicateLink`] if an unordered node pair is
    /// connected twice.
    fn wire(&self) -> Result<(Vec<Vec<u32>>, Vec<u32>), TopoError> {
        let mut seen_pairs = BTreeSet::new();
        let mut out_links: Vec<Vec<u32>> = vec![Vec::new(); self.kinds.len()];
        let mut link_to = Vec::with_capacity(self.edges.len() * 2);
        for &(a, b, _) in &self.edges {
            if !seen_pairs.insert((a.min(b), a.max(b))) {
                return Err(TopoError::DuplicateLink {
                    a: NodeId::from_index(a),
                    b: NodeId::from_index(b),
                });
            }
            for (from, to) in [(a, b), (b, a)] {
                out_links[from].push(u32::try_from(link_to.len()).expect("a link index"));
                link_to.push(u32::try_from(to).expect("a node index"));
            }
        }
        Ok((out_links, link_to))
    }

    /// Finalizes into a [`Fabric`] with deterministic shortest-path
    /// routes: the unique path on a tree, otherwise a BFS per
    /// destination (neighbors visited in edge-insertion order) built on
    /// first use.
    ///
    /// # Errors
    ///
    /// [`TopoError::EmptyTopology`] for a node-less graph,
    /// [`TopoError::DuplicateLink`] if an unordered node pair is
    /// connected twice, [`TopoError::IsolatedSwitch`] for a switch with
    /// no ports, and [`TopoError::Disconnected`] if any node cannot
    /// reach any other.
    pub fn try_build(self) -> Result<Fabric, TopoError> {
        let n = self.kinds.len();
        if n == 0 {
            return Err(TopoError::EmptyTopology);
        }
        let (out_links, link_to) = self.wire()?;
        let links = self
            .edges
            .iter()
            .flat_map(|&(_, _, cfg)| [Link::new(cfg), Link::new(cfg)])
            .collect();
        if n > 1 {
            for (i, kind) in self.kinds.iter().enumerate() {
                if *kind == NodeKind::Switch && out_links[i].is_empty() {
                    return Err(TopoError::IsolatedSwitch(NodeId::from_index(i)));
                }
            }
        }
        // Links are bidirectional, so every pair is routable iff node 0
        // reaches every node; the first node it misses is the first
        // unroutable pair a BFS per destination would have found.
        let row = bfs_row(&out_links, &link_to, 0);
        if let Some(v) = (1..n).find(|&v| row[v] == NO_ROUTE) {
            return Err(TopoError::Disconnected {
                from: NodeId::from_index(v),
                to: NodeId(0),
            });
        }
        // A connected graph with one edge fewer than nodes is a tree.
        let routes = if self.edges.len() + 1 == n {
            Routes::Tree(euler_tour(&out_links, &link_to))
        } else {
            Routes::Rows {
                rows: (0..n).map(|_| LazyRow::new()).collect(),
                out_links,
            }
        };
        Ok(Fabric {
            kinds: self.kinds,
            switch_specs: self.switch_specs,
            links,
            link_to,
            routes,
            hop_backpressure: self.hop_backpressure,
            traffic: vec![Traffic::default(); n],
        })
    }

    /// Finalizes into a [`Fabric`], computing shortest-path routes.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`] — most commonly a disconnected graph
    /// (every node must reach every other node).
    pub fn build(self) -> Fabric {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Routing-row sentinel for "no route" (only ever `from == dst`), and
/// the root's parent in a [`TreeNode`].
const NO_ROUTE: u32 = u32::MAX;

/// Every node's first link toward `dst`, from one BFS out of `dst` over
/// the reversed links (neighbors in edge-insertion order). The row
/// doubles as the visited set: [`NO_ROUTE`] is unvisited, and `dst`
/// itself is skipped.
fn bfs_row(out_links: &[Vec<u32>], link_to: &[u32], dst: usize) -> Box<[u32]> {
    let mut row = vec![NO_ROUTE; out_links.len()].into_boxed_slice();
    let mut queue = Vec::with_capacity(out_links.len());
    queue.push(u32::try_from(dst).expect("a node index"));
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &l_uv in &out_links[u as usize] {
            let v = link_to[l_uv as usize];
            if v as usize != dst && row[v as usize] == NO_ROUTE {
                // First hop from v toward dst is the link v→u.
                row[v as usize] = l_uv ^ 1;
                queue.push(v);
            }
        }
    }
    row
}

/// One node of a tree fabric rooted at node 0.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    /// The parent node ([`NO_ROUTE`] at the root).
    parent: u32,
    /// The link from this node to its parent; its reverse (`up ^ 1`)
    /// leads down from the parent.
    up: u32,
    /// Euler interval: the node's subtree is exactly the nodes whose
    /// `tin` lies in `[tin, tout)`.
    tin: u32,
    tout: u32,
}

/// One depth-first walk of a connected tree from node 0, recording each
/// node's parent link and Euler interval.
fn euler_tour(out_links: &[Vec<u32>], link_to: &[u32]) -> Box<[TreeNode]> {
    let root = TreeNode {
        parent: NO_ROUTE,
        up: NO_ROUTE,
        tin: 0,
        tout: 0,
    };
    let mut nodes = vec![root; out_links.len()].into_boxed_slice();
    // (node, next out-link position to explore)
    let mut stack = vec![(0u32, 0usize)];
    let mut clock = 1;
    while let Some((u, next)) = stack.last_mut() {
        let u = *u as usize;
        match out_links[u].get(*next) {
            Some(&l) => {
                *next += 1;
                let v = link_to[l as usize];
                if v != nodes[u].parent {
                    nodes[v as usize] = TreeNode {
                        parent: u32::try_from(u).expect("a node index"),
                        up: l ^ 1,
                        tin: clock,
                        tout: 0,
                    };
                    clock += 1;
                    stack.push((v, 0));
                }
            }
            None => {
                nodes[u].tout = clock;
                stack.pop();
            }
        }
    }
    nodes
}

/// One routing row, built on first use.
#[expect(
    clippy::disallowed_types,
    reason = "a fabric is owned by its cluster and lent to engines per event, never shared"
)]
type LazyRow = std::cell::OnceCell<Box<[u32]>>;

/// How a [`Fabric`] answers "first link from `from` toward `dst`".
#[derive(Debug)]
enum Routes {
    /// A tree: the unique path, from parent links and Euler intervals.
    Tree(Box<[TreeNode]>),
    /// A graph with cycles.
    Rows {
        /// `rows[dst][from]`: the first link from `from` toward `dst`,
        /// [`NO_ROUTE`] at `from == dst`; built by [`bfs_row`] on the
        /// first query for `dst`.
        rows: Vec<LazyRow>,
        /// `out_links[u]`: the links leaving node `u`, in
        /// edge-insertion order.
        out_links: Vec<Vec<u32>>,
    },
}

/// A declarative topology: what to generate, plus the link/switch
/// parameters and credit-drain model to generate it with. `build`
/// returns both the [`Fabric`] and a [`TopoMap`] describing the shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSpec {
    kind: TopoKind,
    hop_backpressure: bool,
    switch: SwitchSpec,
    link: LinkConfig,
}

/// The topology families a [`TopoSpec`] can generate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TopoKind {
    /// All hosts and TCAs on one switch (the paper's §4 cluster).
    SingleSwitch { hosts: usize, tcas: usize },
    /// A fat tree of `radix`-port switches: `radix/2` hosts per leaf,
    /// `radix/2`-way aggregation per upper level, TCAs at the root.
    FatTree {
        radix: usize,
        hosts: usize,
        tcas: usize,
    },
    /// An explicit node/edge list (Clos meshes, irregular testbeds).
    Explicit {
        kinds: Vec<NodeKind>,
        edges: Vec<(u16, u16)>,
    },
}

impl TopoSpec {
    /// The paper's canonical cluster: `hosts` hosts and `tcas` TCAs on
    /// one switch. Node order: switch, hosts, TCAs (the seed order all
    /// single-switch golden digests are pinned to). Keeps the seed's
    /// endpoint-drain credit model — on a one-switch fabric the two
    /// models only differ on host→switch→host transits, and the pinned
    /// digests predate chained drains.
    pub fn single_switch(hosts: usize, tcas: usize) -> Self {
        TopoSpec {
            kind: TopoKind::SingleSwitch { hosts, tcas },
            hop_backpressure: false,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// A fat tree of `radix`-port switches: `radix/2` of each leaf's
    /// ports face hosts, and each level aggregates `radix/2`-way into
    /// the next until a single root remains; TCAs attach to the root.
    /// Node order: leaf switches, hosts, upper switch levels bottom-up,
    /// TCAs. Chained per-hop credit drains are on by default.
    pub fn fat_tree(radix: usize, hosts: usize, tcas: usize) -> Self {
        TopoSpec {
            kind: TopoKind::FatTree { radix, hosts, tcas },
            hop_backpressure: true,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// An explicit topology: `kinds[i]` is node `i`'s kind, `edges` are
    /// full-duplex links in insertion order. Needs at least one switch
    /// (the [`TopoMap`] root); hosts must attach directly to a switch.
    pub fn explicit(kinds: Vec<NodeKind>, edges: Vec<(u16, u16)>) -> Self {
        TopoSpec {
            kind: TopoKind::Explicit { kinds, edges },
            hop_backpressure: true,
            switch: SwitchSpec::paper(),
            link: LinkConfig::paper(),
        }
    }

    /// Reverts to the seed's endpoint-drain credit model (each hop's
    /// credit frees at that hop's own arrival). The legacy reduction
    /// tree is pinned to this; new fabrics should keep chained drains.
    pub fn endpoint_drain(mut self) -> Self {
        self.hop_backpressure = false;
        self
    }

    /// Replaces the switch parameters used for every generated switch.
    pub fn with_switch(mut self, spec: SwitchSpec) -> Self {
        self.switch = spec;
        self
    }

    /// Replaces the link parameters used for every generated link.
    pub fn with_link(mut self, cfg: LinkConfig) -> Self {
        self.link = cfg;
        self
    }

    /// Canonical label for bench/CI naming: `single-switch`,
    /// `fat-tree-r<radix>`, `explicit`.
    pub fn label(&self) -> String {
        match &self.kind {
            TopoKind::SingleSwitch { .. } => "single-switch".to_string(),
            TopoKind::FatTree { radix, .. } => format!("fat-tree-r{radix}"),
            TopoKind::Explicit { .. } => "explicit".to_string(),
        }
    }

    /// Generates the topology as a [`TopologyBuilder`] (for callers
    /// that need to finish wiring themselves) plus its [`TopoMap`].
    ///
    /// # Errors
    ///
    /// [`TopoError::BadSpec`] for out-of-range parameters (fat-tree
    /// radix below 4, explicit edges referencing unknown nodes, a host
    /// not attached to any switch, …).
    pub fn try_builder(&self) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        match &self.kind {
            TopoKind::SingleSwitch { hosts, tcas } => self.build_single(*hosts, *tcas),
            TopoKind::FatTree { radix, hosts, tcas } => self.build_fat_tree(*radix, *hosts, *tcas),
            TopoKind::Explicit { kinds, edges } => self.build_explicit(kinds, edges),
        }
    }

    /// [`Self::try_builder`], panicking on a bad spec.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`].
    pub fn builder(&self) -> (TopologyBuilder, TopoMap) {
        self.try_builder().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Generates the topology and finalizes it into a routed
    /// [`Fabric`].
    ///
    /// # Errors
    ///
    /// Any [`TopoError`] from the spec or from route construction.
    pub fn try_build(&self) -> Result<(Fabric, TopoMap), TopoError> {
        let (b, map) = self.try_builder()?;
        Ok((b.try_build()?, map))
    }

    /// [`Self::try_build`], panicking on error.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopoError`].
    pub fn build(&self) -> (Fabric, TopoMap) {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    fn build_single(
        &self,
        hosts: usize,
        tcas: usize,
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        let sw = b.add_switch(self.switch);
        let host_ids: Vec<NodeId> = (0..hosts).map(|_| b.add_host()).collect();
        let tca_ids: Vec<NodeId> = (0..tcas).map(|_| b.add_tca()).collect();
        for &h in &host_ids {
            b.connect(h, sw, self.link);
        }
        for &t in &tca_ids {
            b.connect(t, sw, self.link);
        }
        let map = TopoMap {
            host_leaf: vec![sw; hosts],
            hosts: host_ids,
            tcas: tca_ids,
            switches: vec![sw],
            parent: BTreeMap::new(),
            root: sw,
        };
        Ok((b, map))
    }

    fn build_fat_tree(
        &self,
        radix: usize,
        hosts: usize,
        tcas: usize,
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        if radix < 4 {
            // half = radix/2 must be >= 2 or the aggregation loop can
            // never converge to a single root.
            return Err(TopoError::BadSpec("fat-tree radix must be at least 4"));
        }
        if hosts == 0 {
            return Err(TopoError::BadSpec("fat-tree needs at least one host"));
        }
        let half = radix / 2;
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        let n_leaves = hosts.div_ceil(half);
        let leaves: Vec<NodeId> = (0..n_leaves).map(|_| b.add_switch(self.switch)).collect();
        let mut host_ids = Vec::with_capacity(hosts);
        let mut host_leaf = Vec::with_capacity(hosts);
        for i in 0..hosts {
            let h = b.add_host();
            let leaf = leaves[i / half];
            b.connect(h, leaf, self.link);
            host_ids.push(h);
            host_leaf.push(leaf);
        }
        // Build the switch tree upward, `half`-way aggregation per level.
        let mut parent = BTreeMap::new();
        let mut level = leaves.clone();
        let mut switches = leaves;
        while level.len() > 1 {
            let n_up = level.len().div_ceil(half);
            let ups: Vec<NodeId> = (0..n_up).map(|_| b.add_switch(self.switch)).collect();
            for (i, &sw) in level.iter().enumerate() {
                let up = ups[i / half];
                b.connect(sw, up, self.link);
                parent.insert(sw, up);
            }
            switches.extend(ups.iter().copied());
            level = ups;
        }
        let root = level[0];
        let tca_ids: Vec<NodeId> = (0..tcas).map(|_| b.add_tca()).collect();
        for &t in &tca_ids {
            b.connect(t, root, self.link);
        }
        let map = TopoMap {
            hosts: host_ids,
            tcas: tca_ids,
            switches,
            host_leaf,
            parent,
            root,
        };
        Ok((b, map))
    }

    fn build_explicit(
        &self,
        kinds: &[NodeKind],
        edges: &[(u16, u16)],
    ) -> Result<(TopologyBuilder, TopoMap), TopoError> {
        if kinds.is_empty() {
            return Err(TopoError::EmptyTopology);
        }
        let mut b = TopologyBuilder::new();
        b.set_hop_backpressure(self.hop_backpressure);
        for k in kinds {
            match k {
                NodeKind::Host => b.add_host(),
                NodeKind::Switch => b.add_switch(self.switch),
                NodeKind::Tca => b.add_tca(),
            };
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); kinds.len()];
        for &(a, bn) in edges {
            let (ai, bi) = (a as usize, bn as usize);
            if ai >= kinds.len() || bi >= kinds.len() {
                return Err(TopoError::BadSpec("edge references unknown node"));
            }
            if ai == bi {
                return Err(TopoError::BadSpec("self-loop edge"));
            }
            adj[ai].push(bi);
            adj[bi].push(ai);
            b.connect(NodeId(a), NodeId(bn), self.link);
        }
        let mut hosts = Vec::new();
        let mut tcas = Vec::new();
        let mut switches = Vec::new();
        for (i, k) in kinds.iter().enumerate() {
            let id = NodeId::from_index(i);
            match k {
                NodeKind::Host => hosts.push(id),
                NodeKind::Tca => tcas.push(id),
                NodeKind::Switch => switches.push(id),
            }
        }
        if switches.is_empty() {
            return Err(TopoError::BadSpec(
                "explicit topology needs at least one switch",
            ));
        }
        // Each host's leaf: its first switch neighbor, edge order.
        let mut host_leaf = Vec::with_capacity(hosts.len());
        for &h in &hosts {
            let leaf = adj[h.0 as usize]
                .iter()
                .copied()
                .find(|&nb| kinds[nb] == NodeKind::Switch)
                .ok_or(TopoError::BadSpec("host must attach directly to a switch"))?;
            host_leaf.push(NodeId::from_index(leaf));
        }
        // Root: the switch with minimum eccentricity over hosts (ties
        // break to the lowest id) — the natural rendezvous for
        // root-placement policies on irregular graphs.
        let root = switches
            .iter()
            .copied()
            .map(|s| (eccentricity(&adj, s.0 as usize, &hosts), s))
            .min_by_key(|&(ecc, s)| (ecc, s.0))
            .map(|(_, s)| s)
            .expect("at least one switch");
        // Parent chains: BFS over the switch-only subgraph from the
        // root, neighbors in edge order. Switches only reachable
        // through a host keep no parent (they are their own apex).
        let mut parent = BTreeMap::new();
        let mut visited = vec![false; kinds.len()];
        visited[root.0 as usize] = true;
        let mut q = VecDeque::from([root.0 as usize]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if kinds[v] == NodeKind::Switch && !visited[v] {
                    visited[v] = true;
                    parent.insert(NodeId::from_index(v), NodeId::from_index(u));
                    q.push_back(v);
                }
            }
        }
        Ok((
            b,
            TopoMap {
                hosts,
                tcas,
                switches,
                host_leaf,
                parent,
                root,
            },
        ))
    }
}

/// Max BFS distance from `start` to any of `targets` (`usize::MAX` when
/// some target is unreachable).
fn eccentricity(adj: &[Vec<usize>], start: usize, targets: &[NodeId]) -> usize {
    let mut dist = vec![usize::MAX; adj.len()];
    dist[start] = 0;
    let mut q = VecDeque::from([start]);
    while let Some(u) = q.pop_front() {
        for &v in &adj[u] {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                q.push_back(v);
            }
        }
    }
    targets
        .iter()
        .map(|t| dist[t.0 as usize])
        .max()
        .unwrap_or(0)
}

/// Structure of a [`TopoSpec`]-generated topology, for layers that
/// place computation on it (handler placement, aggregation trees)
/// without re-deriving the shape from raw routes.
#[derive(Debug, Clone)]
pub struct TopoMap {
    /// Host node ids, in creation order.
    pub hosts: Vec<NodeId>,
    /// TCA node ids, in creation order.
    pub tcas: Vec<NodeId>,
    /// All switch ids, leaves first then upper levels bottom-up.
    pub switches: Vec<NodeId>,
    /// `host_leaf[i]` is the switch `hosts[i]` attaches to.
    pub host_leaf: Vec<NodeId>,
    /// Each non-root switch's parent in the aggregation tree.
    pub parent: BTreeMap<NodeId, NodeId>,
    /// The apex switch (single switch: the switch; fat tree: the top of
    /// the tree; explicit: minimum host eccentricity, ties to lowest id).
    pub root: NodeId,
}

impl TopoMap {
    /// The leaf switch `host` attaches to, if `host` is a known host.
    pub fn leaf_of(&self, host: NodeId) -> Option<NodeId> {
        // Hosts are created, and so numbered, in ascending order.
        self.hosts
            .binary_search(&host)
            .ok()
            .map(|i| self.host_leaf[i])
    }

    /// The parent chain from `sw` (inclusive) to its apex (the root, or
    /// the last switch with a recorded parent).
    pub fn chain_to_root(&self, sw: NodeId) -> Vec<NodeId> {
        let mut chain = vec![sw];
        let mut cur = sw;
        while let Some(&up) = self.parent.get(&cur) {
            chain.push(up);
            cur = up;
        }
        chain
    }

    /// The distinct leaf switches hosts attach to, ascending.
    pub fn leaves(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.host_leaf.iter().copied().collect();
        set.into_iter().collect()
    }
}

/// One link traversal of a packet's route, as recorded by
/// [`Fabric::transmit_recorded`] for the flight recorder: which link
/// carried the bytes, between which nodes, how long the send waited
/// before the link accepted it, and the exact wire occupancy window.
///
/// Recording is observation-only — the timings are the ones the
/// ordinary [`Fabric::transmit`] computes; a recorded transmit is
/// bit-identical to an unrecorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Index of the link direction that carried the packet (stable for
    /// a given topology: links are numbered in edge-insertion order,
    /// two directions per edge).
    pub link: u32,
    /// The sending node of this hop.
    pub from: NodeId,
    /// The receiving node of this hop.
    pub to: NodeId,
    /// How long the send waited after the data was ready at this hop
    /// before the first byte left — credit stalls, a busy wire, or an
    /// outage deferral.
    pub wait: SimDuration,
    /// When the first byte left the sender.
    pub start: SimTime,
    /// When serialization finished (the wire freed; excludes
    /// propagation).
    pub busy_until: SimTime,
    /// When the last byte arrived at the receiver.
    pub done: SimTime,
}

/// Result of injecting one packet into the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the header is available at the destination (active dispatch
    /// may begin).
    pub header_at: SimTime,
    /// When the first payload byte is available at the destination.
    pub payload_start: SimTime,
    /// When the last byte arrived.
    pub arrival: SimTime,
    /// Number of links traversed.
    pub hops: usize,
}

impl Delivery {
    /// Arrival time of payload byte `k` of a `len`-byte payload,
    /// linearly interpolated over the final-link serialization.
    pub fn byte_at(&self, k: u64, len: u64) -> SimTime {
        if len == 0 {
            return self.arrival;
        }
        let span = self.arrival.since(self.payload_start).as_ps();
        let frac = (span as u128 * (k.min(len) as u128)) / (len as u128);
        self.payload_start + SimDuration::from_ps(u64::try_from(frac).expect("at most the span"))
    }
}

/// The switched fabric: links, routes, and per-node traffic accounting.
///
/// Every field but the link occupancy and traffic counters is static
/// configuration: fixed by the [`TopologyBuilder`]/[`TopoSpec`] that
/// produced this fabric, so its snapshot codec skips it — a restoring
/// process rebuilds the identical topology from the same spec before
/// restoring (which verifies the link and node counts match).
///
/// Routes are a pure function of that topology. A tree (edges = nodes
/// − 1, connected) has one path per pair, so a route is the first link
/// of that path, read off each node's parent link and Euler interval;
/// this is exactly the hop a BFS from the destination would pick, with
/// no tie to break. A graph with cycles keeps lazily built BFS rows,
/// and building them in any order, or again after a restore, yields the
/// same routes. The rows sit in [`OnceCell`](std::cell::OnceCell)s, so a `Fabric` is `Send`
/// but not `Sync`: one simulation owns it, as it owns the rest of its
/// cluster.
#[derive(Debug)]
pub struct Fabric {
    kinds: Vec<NodeKind>,
    switch_specs: Vec<Option<SwitchSpec>>,
    links: Vec<Link>,
    /// `link_to[l]`: the node link `l` leads to.
    link_to: Vec<u32>,
    routes: Routes,
    /// Credit-drain model (see [`TopologyBuilder::set_hop_backpressure`]).
    hop_backpressure: bool,
    traffic: Vec<Traffic>,
}

// Every link's dynamic state and the per-node traffic; the link and
// node counts are the topology's and must match on restore.
asan_sim::snap_fields!(Fabric @ "fabric" {
    kinds: skip,
    switch_specs: skip,
    links: fixed,
    link_to: skip,
    routes: skip,
    hop_backpressure: skip,
    traffic: fixed,
});

impl Fabric {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// Whether multi-hop routes chain credit drains to the downstream
    /// hop (see [`TopologyBuilder::set_hop_backpressure`]).
    pub fn hop_backpressure(&self) -> bool {
        self.hop_backpressure
    }

    /// Bytes in/out observed at `node`'s network interface.
    pub fn traffic(&self, node: NodeId) -> Traffic {
        self.traffic[node.0 as usize]
    }

    /// The first hop `(neighbor, link)` from `from` toward `dst`;
    /// `None` when `from == dst`.
    #[inline]
    fn route(&self, from: usize, dst: usize) -> Option<(usize, usize)> {
        match &self.routes {
            Routes::Tree(nodes) => {
                if from == dst {
                    return None;
                }
                let f = nodes[from];
                let t = nodes[dst].tin;
                if t < f.tin || t >= f.tout {
                    // `dst` is outside `from`'s subtree: go up.
                    return Some((f.parent as usize, f.up as usize));
                }
                // Down to the child whose subtree holds `dst`: walk up
                // from `dst` until the parent is `from`.
                let mut c = dst;
                while nodes[c].parent as usize != from {
                    c = nodes[c].parent as usize;
                }
                Some((c, (nodes[c].up ^ 1) as usize))
            }
            Routes::Rows { rows, out_links } => {
                let link = rows[dst].get_or_init(|| bfs_row(out_links, &self.link_to, dst))[from];
                (link != NO_ROUTE).then(|| (self.link_to[link as usize] as usize, link as usize))
            }
        }
    }

    /// Number of hops on the route from `src` to `dst` (0 if equal).
    pub fn path_len(&self, src: NodeId, dst: NodeId) -> usize {
        let mut cur = src.0 as usize;
        let dst = dst.0 as usize;
        let mut hops = 0;
        while cur != dst {
            let (nb, _) = self.route(cur, dst).expect("connected");
            cur = nb;
            hops += 1;
        }
        hops
    }

    /// Builds the flight-recorder record for one link traversal.
    /// `entry_ready` is the instant the data was ready to go out on
    /// this hop (routing latency already applied), i.e. the `ready`
    /// value handed to [`Link::send`].
    fn hop_record(
        &self,
        link_idx: usize,
        from: usize,
        to: usize,
        entry_ready: SimTime,
        timing: LinkTiming,
    ) -> Hop {
        // `done` includes propagation; the wire itself frees when
        // serialization ends.
        let busy_until = timing.done - self.links[link_idx].config().propagation;
        Hop {
            link: u32::try_from(link_idx).expect("a link index"),
            from: NodeId::from_index(from),
            to: NodeId::from_index(to),
            wait: timing.start.since(entry_ready),
            start: timing.start,
            busy_until,
            done: timing.done,
        }
    }

    /// Injects a packet of `wire_bytes` from `src` to `dst`, with the
    /// data ready at the source NIC at `ready`. Returns delivery timing
    /// and records traffic at both endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn transmit(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
    ) -> Delivery {
        self.transmit_recorded(wire_bytes, src, dst, ready, None)
    }

    /// [`Fabric::transmit`], additionally appending one [`Hop`] record
    /// per link traversal to `hops_out` (when given). Recording is
    /// purely observational: the returned [`Delivery`] and all link
    /// state mutations are bit-identical to an unrecorded transmit.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn transmit_recorded(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        mut hops_out: Option<&mut Vec<Hop>>,
    ) -> Delivery {
        assert_ne!(src, dst, "transmit to self");
        if self.hop_backpressure {
            return self.transmit_chained(wire_bytes, src, dst, ready, hops_out);
        }
        let dst_idx = dst.0 as usize;
        let mut cur = src.0 as usize;
        let mut header_ready = ready;
        let mut hops = 0;
        let mut last_timing: Option<LinkTiming> = None;
        while cur != dst_idx {
            let (nb, link_idx) = self.route(cur, dst_idx).expect("connected");
            // Intermediate switches add their routing latency before the
            // header can go out; endpoints inject directly. A
            // store-and-forward switch additionally waits for the whole
            // packet before routing it.
            if hops > 0 {
                if let Some(spec) = self.switch_specs[cur] {
                    if !spec.cut_through {
                        header_ready = last_timing.expect("hop > 0").done;
                    }
                    header_ready += spec.routing_latency;
                }
            }
            let timing = self.links[link_idx].send(wire_bytes, header_ready);
            // Endpoint-drain model (seed behavior): the receiver's input
            // buffer frees at the packet's own arrival on this hop.
            self.links[link_idx].note_drain(timing.done);
            if let Some(out) = hops_out.as_deref_mut() {
                out.push(self.hop_record(link_idx, cur, nb, header_ready, timing));
            }
            header_ready = timing.header_at;
            last_timing = Some(timing);
            cur = nb;
            hops += 1;
        }
        let t = last_timing.expect("at least one hop");
        self.traffic[src.0 as usize].record_out(wire_bytes);
        self.traffic[dst_idx].record_in(wire_bytes);
        Delivery {
            header_at: t.header_at,
            payload_start: t.header_at,
            arrival: t.done,
            hops,
        }
    }

    /// Multi-hop transmit with chained credit drains: hop `i`'s credit
    /// (the downstream switch's input buffer) is held until the packet
    /// has fully left hop `i + 1`, so a congested downstream link
    /// backpressures every upstream link on the path. The final hop
    /// drains at the endpoint's own arrival, as before.
    fn transmit_chained(
        &mut self,
        wire_bytes: u64,
        src: NodeId,
        dst: NodeId,
        ready: SimTime,
        mut hops_out: Option<&mut Vec<Hop>>,
    ) -> Delivery {
        let dst_idx = dst.0 as usize;
        let mut cur = src.0 as usize;
        let mut header_ready = ready;
        let mut path: Vec<(usize, LinkTiming)> = Vec::with_capacity(8);
        while cur != dst_idx {
            let (nb, link_idx) = self.route(cur, dst_idx).expect("connected");
            if !path.is_empty() {
                if let Some(spec) = self.switch_specs[cur] {
                    if !spec.cut_through {
                        header_ready = path.last().expect("hop > 0").1.done;
                    }
                    header_ready += spec.routing_latency;
                }
            }
            let timing = self.links[link_idx].send(wire_bytes, header_ready);
            if let Some(out) = hops_out.as_deref_mut() {
                out.push(self.hop_record(link_idx, cur, nb, header_ready, timing));
            }
            header_ready = timing.header_at;
            path.push((link_idx, timing));
            cur = nb;
        }
        // Shortest paths never revisit a link, so noting every drain
        // after the walk is equivalent to noting each as soon as its
        // drain time is known.
        for i in 0..path.len() {
            let drain = if i + 1 < path.len() {
                path[i + 1].1.done
            } else {
                path[i].1.done
            };
            self.links[path[i].0].note_drain(drain);
        }
        let t = path.last().expect("at least one hop").1;
        self.traffic[src.0 as usize].record_out(wire_bytes);
        self.traffic[dst_idx].record_in(wire_bytes);
        Delivery {
            header_at: t.header_at,
            payload_start: t.header_at,
            arrival: t.done,
            hops: path.len(),
        }
    }

    /// Total bytes carried by all links (each hop counts).
    pub fn total_link_bytes(&self) -> u64 {
        self.links.iter().map(Link::bytes_carried).sum()
    }

    /// Total credit stalls across all links.
    pub fn total_credit_stalls(&self) -> u64 {
        self.links.iter().map(Link::credit_stalls).sum()
    }

    /// The distribution of credit-stall durations, merged over every
    /// link direction in the fabric.
    pub fn credit_stall_histogram(&self) -> asan_sim::hist::LogHistogram {
        let mut h = asan_sim::hist::LogHistogram::new();
        for l in &self.links {
            h.merge(l.credit_stall_hist());
        }
        h
    }

    /// Injects a transient link-down window `[from, until)` on every
    /// link in the fabric (a fabric-wide brown-out; see
    /// [`Link::inject_outage`]).
    pub fn inject_outage(&mut self, from: SimTime, until: SimTime) {
        for l in &mut self.links {
            l.inject_outage(from, until);
        }
    }

    /// Tightens the credit limit on every link (models receivers
    /// advertising fewer buffers; see [`Link::restrict_credits`]).
    pub fn restrict_credits(&mut self, credits: usize) {
        for l in &mut self.links {
            l.restrict_credits(credits);
        }
    }

    /// Total sends deferred by injected outage windows, across links.
    pub fn total_outage_deferrals(&self) -> u64 {
        self.links.iter().map(Link::outage_deferrals).sum()
    }
}

/// Convenience: the paper's canonical single-switch cluster — `hosts`
/// host nodes and `tcas` TCA nodes all attached to one switch. Returns
/// `(fabric, host_ids, tca_ids, switch_id)`.
pub fn single_switch_cluster(
    hosts: usize,
    tcas: usize,
) -> (Fabric, Vec<NodeId>, Vec<NodeId>, NodeId) {
    let (fabric, map) = TopoSpec::single_switch(hosts, tcas).build();
    (fabric, map.hosts, map.tcas, map.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::snap::{Snap, SnapReader, SnapWriter};

    #[test]
    fn single_switch_paths() {
        let (f, hosts, tcas, sw) = single_switch_cluster(2, 1);
        assert_eq!(f.num_nodes(), 4);
        assert_eq!(f.path_len(hosts[0], hosts[1]), 2);
        assert_eq!(f.path_len(hosts[0], sw), 1);
        assert_eq!(f.path_len(tcas[0], hosts[0]), 2);
        assert_eq!(f.kind(sw), NodeKind::Switch);
        assert_eq!(f.kind(hosts[0]), NodeKind::Host);
        assert_eq!(f.kind(tcas[0]), NodeKind::Tca);
        assert!(!f.hop_backpressure());
    }

    #[test]
    fn one_hop_delivery_timing() {
        let (mut f, hosts, _, sw) = single_switch_cluster(2, 1);
        let d = f.transmit(528, hosts[0], sw, SimTime::ZERO);
        assert_eq!(d.hops, 1);
        assert_eq!(d.arrival.as_ns(), 538); // 528 ns serialization + 10 ns prop
        assert_eq!(d.header_at.as_ns(), 26);
    }

    #[test]
    fn two_hop_delivery_adds_routing_latency() {
        let (mut f, hosts, _, _) = single_switch_cluster(2, 1);
        let d = f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        assert_eq!(d.hops, 2);
        // Hop 1 header at 26 ns; +100 ns routing; hop 2: 528 ns ser +10 prop.
        assert_eq!(d.arrival.as_ns(), 26 + 100 + 528 + 10);
    }

    #[test]
    fn recorded_transmit_reports_hops_without_changing_delivery() {
        let (mut f, hosts, _, sw) = single_switch_cluster(2, 1);
        let (mut g, ghosts, _, _) = single_switch_cluster(2, 1);
        let mut hops = Vec::new();
        let d = f.transmit_recorded(528, hosts[0], hosts[1], SimTime::ZERO, Some(&mut hops));
        let plain = g.transmit(528, ghosts[0], ghosts[1], SimTime::ZERO);
        assert_eq!(d, plain, "recording must not perturb timing");
        assert_eq!(hops.len(), d.hops);
        // Hop 1: host0 → switch, wire busy for the 528 ns serialization,
        // arrival 10 ns of propagation later.
        assert_eq!(hops[0].from, hosts[0]);
        assert_eq!(hops[0].to, sw);
        assert_eq!(hops[0].wait, SimDuration::ZERO);
        assert_eq!(hops[0].start, SimTime::ZERO);
        assert_eq!(hops[0].busy_until.as_ns(), 528);
        assert_eq!(hops[0].done.as_ns(), 538);
        // Hop 2: cut-through switch forwards the header (26 ns) plus
        // 100 ns routing latency before the next wire starts.
        assert_eq!(hops[1].from, sw);
        assert_eq!(hops[1].to, hosts[1]);
        assert_eq!(hops[1].start.as_ns(), 126);
        assert_eq!(hops[1].busy_until.as_ns(), 126 + 528);
        assert_eq!(hops[1].done.as_ns(), 126 + 538);
        assert_ne!(hops[0].link, hops[1].link);
        assert_eq!(hops[1].done, d.arrival);
    }

    #[test]
    fn recorded_transmit_covers_chained_routes_and_stalls() {
        let spec = TopoSpec::fat_tree(4, 4, 0).with_link(LinkConfig {
            credits: 1,
            ..LinkConfig::paper()
        });
        let (mut f, map) = spec.build();
        assert!(f.hop_backpressure());
        let mut hops = Vec::new();
        let d = f.transmit_recorded(
            4096,
            map.hosts[0],
            map.hosts[3],
            SimTime::ZERO,
            Some(&mut hops),
        );
        assert_eq!(hops.len(), d.hops);
        assert!(d.hops >= 3);
        // Back-to-back send on the same route stalls on the
        // single-credit links; the recorded wait is the stall.
        let mut second = Vec::new();
        f.transmit_recorded(
            4096,
            map.hosts[0],
            map.hosts[3],
            SimTime::ZERO,
            Some(&mut second),
        );
        assert!(
            second[0].wait > SimDuration::ZERO,
            "expected a credit stall"
        );
        assert_eq!(second[0].start, SimTime::ZERO + second[0].wait);
    }

    #[test]
    fn chained_drains_do_not_change_uncontended_timing() {
        let spec = TopoSpec::fat_tree(4, 4, 0);
        let (mut bp, map) = spec.build();
        let (mut legacy, _) = spec.clone().endpoint_drain().build();
        assert!(bp.hop_backpressure());
        assert!(!legacy.hop_backpressure());
        let (a, b) = (map.hosts[0], map.hosts[3]);
        let d1 = bp.transmit(528, a, b, SimTime::ZERO);
        let d2 = legacy.transmit(528, a, b, SimTime::ZERO);
        assert_eq!(d1, d2);
        assert!(d1.hops >= 3, "cross-leaf route, got {} hops", d1.hops);
    }

    #[test]
    fn chained_drains_backpressure_upstream_links() {
        // Two hosts fan into one leaf whose uplinks are the bottleneck:
        // with single-credit links, a send stalls on the previous
        // packet's drain. Chained drains release an upstream credit
        // only when the packet leaves the *downstream* hop, so stalls
        // last longer and the burst finishes later than under the
        // seed's endpoint-drain model.
        let run = |chained: bool| {
            let mut spec = TopoSpec::fat_tree(4, 4, 0).with_link(LinkConfig {
                credits: 1,
                ..LinkConfig::paper()
            });
            if !chained {
                spec = spec.endpoint_drain();
            }
            let (mut f, map) = spec.build();
            let dst = map.hosts[3]; // other leaf: all routes share uplinks
            let mut last = SimTime::ZERO;
            for _ in 0..4 {
                let a = f.transmit(4096, map.hosts[0], dst, SimTime::ZERO).arrival;
                let b = f.transmit(4096, map.hosts[1], dst, SimTime::ZERO).arrival;
                last = last.max(a).max(b);
            }
            (f.total_credit_stalls(), last)
        };
        let (chained_stalls, chained_last) = run(true);
        let (endpoint_stalls, endpoint_last) = run(false);
        assert!(chained_stalls > 0 && endpoint_stalls > 0);
        assert!(
            chained_last > endpoint_last,
            "chained burst {chained_last} should outlast endpoint burst {endpoint_last}"
        );
    }

    #[test]
    fn traffic_recorded_at_endpoints_only() {
        let (mut f, hosts, _, _) = single_switch_cluster(2, 1);
        f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        assert_eq!(f.traffic(hosts[0]).bytes_out, 528);
        assert_eq!(f.traffic(hosts[1]).bytes_in, 528);
        assert_eq!(f.traffic(hosts[0]).bytes_in, 0);
        // Both hops carried the bytes.
        assert_eq!(f.total_link_bytes(), 2 * 528);
    }

    #[test]
    fn contention_on_shared_output_port() {
        let (mut f, hosts, tcas, _) = single_switch_cluster(2, 1);
        // Host0 and TCA0 both send to host1 at t=0: the second packet
        // serializes after the first on the switch→host1 link.
        let a = f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        let b = f.transmit(528, tcas[0], hosts[1], SimTime::ZERO);
        assert!(b.arrival > a.arrival);
        assert_eq!(b.arrival.since(a.arrival).as_ns(), 528);
    }

    #[test]
    fn byte_at_interpolates() {
        let (mut f, hosts, _, sw) = single_switch_cluster(1, 0);
        let d = f.transmit(528, hosts[0], sw, SimTime::ZERO);
        assert_eq!(d.byte_at(0, 512), d.payload_start);
        assert_eq!(d.byte_at(512, 512), d.arrival);
        let mid = d.byte_at(256, 512);
        assert!(mid > d.payload_start && mid < d.arrival);
    }

    #[test]
    fn multi_switch_tree_routes() {
        // Two leaf switches under a root, a host on each leaf.
        let mut b = TopologyBuilder::new();
        let root = b.add_switch(SwitchSpec::paper());
        let l1 = b.add_switch(SwitchSpec::paper());
        let l2 = b.add_switch(SwitchSpec::paper());
        let h1 = b.add_host();
        let h2 = b.add_host();
        b.connect(l1, root, LinkConfig::paper());
        b.connect(l2, root, LinkConfig::paper());
        b.connect(h1, l1, LinkConfig::paper());
        b.connect(h2, l2, LinkConfig::paper());
        let mut f = b.build();
        assert_eq!(f.path_len(h1, h2), 4);
        let d = f.transmit(528, h1, h2, SimTime::ZERO);
        assert_eq!(d.hops, 4);
        // Three intermediate switches each add 100 ns.
        assert_eq!(d.arrival.as_ns(), 26 + 100 + 26 + 100 + 26 + 100 + 528 + 10);
    }

    #[test]
    fn store_and_forward_is_slower_than_cut_through() {
        let build = |spec: SwitchSpec| {
            let mut b = TopologyBuilder::new();
            let s1 = b.add_switch(spec);
            let s2 = b.add_switch(spec);
            let h1 = b.add_host();
            let h2 = b.add_host();
            b.connect(h1, s1, LinkConfig::paper());
            b.connect(s1, s2, LinkConfig::paper());
            b.connect(h2, s2, LinkConfig::paper());
            let mut f = b.build();
            f.transmit(528, h1, h2, SimTime::ZERO).arrival
        };
        let ct = build(SwitchSpec::paper());
        let sf = build(SwitchSpec::store_and_forward());
        // Store-and-forward pays the full serialization per hop.
        assert!(sf > ct, "store-and-forward {sf} <= cut-through {ct}");
        assert!(sf.since(ct).as_ns() >= 900, "diff = {}", sf.since(ct));
    }

    #[test]
    fn fabric_snapshot_preserves_contention_state() {
        let (mut f, hosts, tcas, _) = single_switch_cluster(2, 1);
        // Load the switch→host1 output port so future sends contend.
        f.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
        f.transmit(528, tcas[0], hosts[1], SimTime::ZERO);

        let mut w = SnapWriter::new();
        f.snapshot(&mut w);
        let bytes = w.into_bytes();
        let (mut back, ..) = single_switch_cluster(2, 1);
        let mut r = SnapReader::new(&bytes).unwrap();
        back.restore(&mut r).unwrap();
        r.finish().unwrap();

        // Same occupancy: the next packet sees identical queueing.
        let a = f.transmit(528, hosts[0], hosts[1], SimTime::from_ns(100));
        let b = back.transmit(528, hosts[0], hosts[1], SimTime::from_ns(100));
        assert_eq!(a, b);
        assert_eq!(back.total_link_bytes(), f.total_link_bytes());
        assert_eq!(back.traffic(hosts[1]), f.traffic(hosts[1]));
        // Mismatched topology fails loudly.
        let (mut wrong, ..) = single_switch_cluster(3, 1);
        let mut r2 = SnapReader::new(&bytes).unwrap();
        assert!(wrong.restore(&mut r2).is_err());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_topology_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_host();
        b.add_host();
        b.build();
    }

    #[test]
    #[should_panic(expected = "transmit to self")]
    fn self_transmit_rejected() {
        let (mut f, hosts, _, _) = single_switch_cluster(1, 1);
        f.transmit(16, hosts[0], hosts[0], SimTime::ZERO);
    }

    #[test]
    fn try_build_reports_each_error() {
        assert_eq!(
            TopologyBuilder::new().try_build().unwrap_err(),
            TopoError::EmptyTopology
        );

        let mut disc = TopologyBuilder::new();
        let a = disc.add_host();
        let b = disc.add_host();
        let err = disc.try_build().unwrap_err();
        // BFS runs destination 0 first, so node 1's missing route to
        // node 0 is reported.
        assert_eq!(err, TopoError::Disconnected { from: b, to: a });
        assert!(err.to_string().contains("disconnected"));

        let mut dup = TopologyBuilder::new();
        let sw = dup.add_switch(SwitchSpec::paper());
        let h = dup.add_host();
        dup.connect(h, sw, LinkConfig::paper());
        dup.connect(sw, h, LinkConfig::paper()); // same pair, reversed
        assert_eq!(
            dup.try_build().unwrap_err(),
            TopoError::DuplicateLink { a: sw, b: h }
        );

        let mut iso = TopologyBuilder::new();
        let s1 = iso.add_switch(SwitchSpec::paper());
        let h1 = iso.add_host();
        let s2 = iso.add_switch(SwitchSpec::paper()); // zero ports
        iso.connect(h1, s1, LinkConfig::paper());
        assert_eq!(iso.try_build().unwrap_err(), TopoError::IsolatedSwitch(s2));
    }

    #[test]
    fn spec_single_switch_matches_hand_built_cluster() {
        let (f, map) = TopoSpec::single_switch(3, 2).build();
        assert_eq!(f.num_nodes(), 6);
        assert_eq!(map.hosts.len(), 3);
        assert_eq!(map.tcas.len(), 2);
        assert_eq!(map.switches, vec![map.root]);
        assert_eq!(map.root, NodeId(0)); // seed order: switch first
        assert_eq!(map.hosts[0], NodeId(1));
        assert!(map.parent.is_empty());
        assert_eq!(map.leaf_of(map.hosts[2]), Some(map.root));
        assert_eq!(map.leaves(), vec![map.root]);
    }

    #[test]
    fn spec_fat_tree_shapes_and_parents() {
        // 20 hosts, radix 8 → half = 4: 5 leaves, then 2 mids, then root.
        let (f, map) = TopoSpec::fat_tree(8, 20, 1).build();
        assert_eq!(map.hosts.len(), 20);
        assert_eq!(map.switches.len(), 5 + 2 + 1);
        assert_eq!(map.tcas.len(), 1);
        assert_eq!(f.num_nodes(), 20 + 8 + 1);
        // Every leaf chains to the root.
        for &h in &map.hosts {
            let leaf = map.leaf_of(h).unwrap();
            assert_eq!(*map.chain_to_root(leaf).last().unwrap(), map.root);
        }
        assert_eq!(map.leaves().len(), 5);
        // TCAs hang off the root.
        assert_eq!(f.path_len(map.tcas[0], map.root), 1);
        // Hosts on the same leaf are two hops apart; the tree is
        // deeper across leaves.
        assert_eq!(f.path_len(map.hosts[0], map.hosts[1]), 2);
        assert!(f.path_len(map.hosts[0], map.hosts[19]) > 2);
    }

    #[test]
    fn spec_explicit_roots_and_errors() {
        use NodeKind::{Host, Switch};
        // h0 - s1 - s2 - h3: both switches are candidates; s1 wins the
        // eccentricity tie-break by id.
        let spec = TopoSpec::explicit(
            vec![Host, Switch, Switch, Host],
            vec![(0, 1), (1, 2), (2, 3)],
        );
        let (_, map) = spec.build();
        assert_eq!(map.root, NodeId(1));
        assert_eq!(map.host_leaf, vec![NodeId(1), NodeId(2)]);
        assert_eq!(map.parent.get(&NodeId(2)), Some(&NodeId(1)));

        let bad = TopoSpec::explicit(vec![Host, Switch], vec![(0, 7)]);
        assert!(matches!(bad.try_build(), Err(TopoError::BadSpec(_))));
        let no_switch = TopoSpec::explicit(vec![Host, Host], vec![(0, 1)]);
        assert!(matches!(no_switch.try_build(), Err(TopoError::BadSpec(_))));
        assert!(matches!(
            TopoSpec::fat_tree(1, 8, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
        // Radix 2 gives half = 1: no aggregation, the tree can never
        // converge to a root — must be rejected, not loop forever.
        assert!(matches!(
            TopoSpec::fat_tree(2, 8, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
        assert!(matches!(
            TopoSpec::fat_tree(8, 0, 0).try_build(),
            Err(TopoError::BadSpec(_))
        ));
    }

    /// Whether `dst`'s routing row exists (never on a tree fabric).
    fn row_built(f: &Fabric, dst: usize) -> bool {
        match &f.routes {
            Routes::Tree(_) => false,
            Routes::Rows { rows, .. } => rows[dst].get().is_some(),
        }
    }

    fn rows_built(f: &Fabric) -> usize {
        (0..f.num_nodes()).filter(|&v| row_built(f, v)).count()
    }

    /// Hop distances from every node to `dst` by a plain BFS over `adj`:
    /// a naive oracle sharing no code with the fabric's routing.
    fn oracle_dist(adj: &[Vec<usize>], dst: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; adj.len()];
        dist[dst] = 0;
        let mut q = VecDeque::from([dst]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Checks the routes of `spec` against [`oracle_dist`]: `dsts`
    /// destinations in a seeded shuffled order, each from every source
    /// (`srcs: None`) or from that many seeded random ones. Each path is
    /// shortest, and each hop crosses the directed link from the current
    /// node to an adjacent node one hop closer to the destination.
    /// A tree fabric must never build a routing row; a graph with
    /// cycles must have rows for exactly the destinations queried.
    fn check_routes_against_oracle(spec: &TopoSpec, dsts: usize, srcs: Option<usize>) {
        let (b, _) = spec.builder();
        let n = b.kinds.len();
        let tree = b.edges.len() + 1 == n;
        let mut adj = vec![Vec::new(); n];
        // Edge `i` owns links `2i` (a→b) and `2i + 1` (b→a).
        let mut link_of = BTreeMap::new();
        for (i, &(a, bn, _)) in b.edges.iter().enumerate() {
            adj[a].push(bn);
            adj[bn].push(a);
            link_of.insert((a, bn), 2 * i);
            link_of.insert((bn, a), 2 * i + 1);
        }
        let f = b.build();
        assert_eq!(matches!(f.routes, Routes::Tree(_)), tree);
        assert_eq!(rows_built(&f), 0, "rows are built on demand");
        let mut rng = asan_sim::SimRng::from_label(&format!("routes-{n}"));
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let queried = &order[..dsts.min(n)];
        for (k, &dst) in queried.iter().enumerate() {
            assert!(!row_built(&f, dst), "row {dst} built early");
            let dist = oracle_dist(&adj, dst);
            let sources: Vec<usize> = match srcs {
                None => (0..n).collect(),
                Some(m) => (0..m).map(|_| rng.index(n)).collect(),
            };
            for src in sources {
                let (s, d) = (NodeId::from_index(src), NodeId::from_index(dst));
                assert_eq!(f.path_len(s, d), dist[src], "{s} -> {d}");
                assert_eq!(f.route(src, dst).is_none(), src == dst);
                let mut cur = src;
                while let Some((nb, link)) = f.route(cur, dst) {
                    assert_eq!(link_of.get(&(cur, nb)), Some(&link), "{cur} -> {nb}");
                    assert_eq!(dist[nb] + 1, dist[cur], "{cur} -> {nb}");
                    cur = nb;
                }
                assert_eq!(cur, dst);
            }
            let want = if tree { 0 } else { k + 1 };
            assert_eq!(rows_built(&f), want, "only queried rows exist");
        }
        for v in 0..n {
            assert_eq!(row_built(&f, v), !tree && queried.contains(&v), "row {v}");
        }
    }

    #[test]
    fn routes_match_naive_bfs_oracle() {
        use NodeKind::{Host, Switch, Tca};
        let fat = TopoSpec::fat_tree(4, 64, 1);
        // Every pair, and a run that leaves some rows unbuilt.
        check_routes_against_oracle(&fat, usize::MAX, None);
        check_routes_against_oracle(&fat, 20, None);
        // A five-switch ring s0..s4 with a chord s1-s3; host 8 is
        // dual-homed on s4 and s1.
        let mesh = TopoSpec::explicit(
            vec![
                Switch, Switch, Switch, Switch, Switch, Host, Host, Host, Host, Tca,
            ],
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (1, 3),
                (5, 0),
                (6, 2),
                (7, 3),
                (8, 4),
                (8, 1),
                (9, 2),
            ],
        );
        check_routes_against_oracle(&mesh, usize::MAX, None);
    }

    /// Checks every `(from, dst)` route of the tree `b` builds against
    /// the BFS row of `dst` over the same wiring.
    fn check_tree_routes_against_bfs_rows(b: TopologyBuilder, label: &str) {
        let (out_links, link_to) = b.wire().unwrap();
        let f = b.build();
        assert!(matches!(f.routes, Routes::Tree(_)), "{label}: not a tree");
        let n = f.num_nodes();
        for dst in 0..n {
            let row = bfs_row(&out_links, &link_to, dst);
            for from in 0..n {
                let want = (from != dst).then(|| {
                    let link = row[from] as usize;
                    (link_to[link] as usize, link)
                });
                assert_eq!(f.route(from, dst), want, "{label}: {from} -> {dst}");
            }
        }
    }

    #[test]
    fn tree_routes_equal_bfs_rows() {
        use NodeKind::{Host, Switch, Tca};
        for spec in [
            TopoSpec::fat_tree(4, 64, 1),
            TopoSpec::single_switch(16, 16),
        ] {
            check_tree_routes_against_bfs_rows(spec.builder().0, &spec.label());
        }
        for k in 0..20 {
            let label = format!("random-tree-{k}");
            let mut rng = asan_sim::SimRng::from_label(&label);
            let n = 2 + rng.index(60);
            // Node i > 0 hangs off a random earlier node; inner nodes
            // are switches, so every host or TCA leaf sits on a switch.
            let edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.index(i), i)).collect();
            let mut degree = vec![0; n];
            for &(a, b) in &edges {
                degree[a] += 1;
                degree[b] += 1;
            }
            let kinds: Vec<NodeKind> = (0..n)
                .map(
                    |v| match (degree[v] > 1 || n == 2 && v == 0, rng.below(3)) {
                        (true, _) | (false, 0) => Switch,
                        (false, 1) => Host,
                        _ => Tca,
                    },
                )
                .collect();
            // Shuffle node ids, edge order and each edge's orientation.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.index(i + 1));
            }
            let mut shuffled = vec![Switch; n];
            for v in 0..n {
                shuffled[perm[v]] = kinds[v];
            }
            let mut order: Vec<(u16, u16)> = edges
                .iter()
                .map(|&(a, b)| {
                    let (a, b) = (NodeId::from_index(perm[a]).0, NodeId::from_index(perm[b]).0);
                    if rng.chance(0.5) {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }
            let spec = TopoSpec::explicit(shuffled, order);
            check_tree_routes_against_bfs_rows(spec.builder().0, &label);
        }
    }

    #[test]
    fn fat_tree_of_4096_hosts_routes_sampled_pairs() {
        // 8 191 nodes: the old dense table of 8-byte entries would take
        // 537 MB; a tree needs no rows at all.
        check_routes_against_oracle(&TopoSpec::fat_tree(4, 4096, 0), 48, Some(48));
    }

    #[test]
    fn two_component_spec_reports_first_unrouted_pair() {
        use NodeKind::{Host, Switch};
        // {0, 1, 4, 5} and {2, 3}: destination 0's BFS runs first and
        // node 2 is the lowest id it cannot reach.
        let spec = TopoSpec::explicit(
            vec![Host, Switch, Switch, Host, Switch, Host],
            vec![(0, 1), (1, 4), (4, 5), (2, 3)],
        );
        assert_eq!(
            spec.try_build().unwrap_err(),
            TopoError::Disconnected {
                from: NodeId(2),
                to: NodeId(0),
            }
        );
    }

    #[test]
    fn spec_labels_are_canonical() {
        assert_eq!(TopoSpec::single_switch(2, 1).label(), "single-switch");
        assert_eq!(TopoSpec::fat_tree(4, 64, 0).label(), "fat-tree-r4");
        assert_eq!(
            TopoSpec::explicit(vec![NodeKind::Switch], vec![]).label(),
            "explicit"
        );
    }
}
