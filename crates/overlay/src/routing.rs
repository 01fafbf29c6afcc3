//! Single-path routing over the overlay.
//!
//! The paper uses single-path routing where "the criterion for path selection
//! is to minimize the mean value of the transmission rate of the path"
//! (§3.3). We compute, for every *destination* broker, a shortest-path tree
//! over the reversed graph with Dijkstra's algorithm, using each link's mean
//! per-KB rate as its weight. Rooting the computation at the destination
//! guarantees that the per-broker next hops are mutually consistent: the path
//! a message actually follows hop by hop is exactly the path whose statistics
//! each broker advertises.

use crate::graph::OverlayGraph;
use crate::pathstats::PathStats;
use bdps_net::link::{Link, MIN_RATE_MS_PER_KB};
use bdps_types::id::{BrokerId, LinkId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The routing decision of one broker for one destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteEntry {
    /// The neighbour to forward to (the paper's `nb`).
    pub(crate) next_hop: BrokerId,
    /// The outgoing link towards that neighbour.
    pub(crate) next_link: LinkId,
    /// Statistics of the whole remaining path to the destination.
    pub(crate) stats: PathStats,
}

/// All-pairs single-path routes.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// `table[dest][source]` — the route entry at `source` towards `dest`
    /// (`None` when `source == dest` or `dest` is unreachable from `source`).
    table: Vec<Vec<Option<RouteEntry>>>,
    broker_count: usize,
}

/// The outcome of an incremental routing update
/// ([`Routing::update_for_link_change`]): which `(source, destination)`
/// pairs' route entries changed — next hop, next link *or* path statistics —
/// so subscription tables can be patched instead of rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteDelta {
    /// `per_source[source]` — destinations whose route from `source`
    /// changed, in ascending destination order.
    per_source: Vec<Vec<BrokerId>>,
    /// Total number of changed `(source, destination)` pairs.
    changed_pairs: usize,
    /// Destinations whose shortest-path tree was repaired (a repair can find
    /// the tree unchanged, so not all of them appear in a changed pair).
    dests_repaired: usize,
}

impl RouteDelta {
    /// Returns true when no route entry changed.
    pub fn is_empty(&self) -> bool {
        self.changed_pairs == 0
    }

    /// Total number of changed `(source, destination)` pairs.
    pub fn changed_pairs(&self) -> usize {
        self.changed_pairs
    }

    /// Number of destination trees that were repaired.
    pub fn dests_repaired(&self) -> usize {
        self.dests_repaired
    }

    /// The destinations whose route entry at `source` changed.
    pub fn changed_dests(&self, source: BrokerId) -> &[BrokerId] {
        self.per_source
            .get(source.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    broker: BrokerId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance with deterministic broker-id tie-breaking.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.broker.cmp(&self.broker))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The working buffers of one shortest-path-tree computation, reused across
/// destinations so a batch of trees allocates them once.
#[derive(Default)]
struct TreeScratch {
    dist: Vec<f64>,
    done: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

/// The working state of [`Routing::repair_row`], reused across the
/// destinations of one batch. Only the sources in `touched` carry flags, so
/// a row's repair clears exactly what it set.
#[derive(Default)]
struct RepairScratch {
    /// Per source: [`TOUCHED`] | [`CUT`] | [`SETTLED`].
    flags: Vec<u8>,
    /// Every source whose entry the repair may change, with its entry before.
    touched: Vec<(BrokerId, Option<RouteEntry>)>,
    /// The sources cut off by removed tree edges, in discovery order.
    cut: Vec<BrokerId>,
    heap: BinaryHeap<HeapEntry>,
}

/// The source is in `RepairScratch::touched`.
const TOUCHED: u8 = 1;
/// The source's path crossed a removed tree edge.
const CUT: u8 = 2;
/// The source's entry is final and its incoming links were relaxed.
const SETTLED: u8 = 4;

/// The entry `link.from` holds if it forwards over `link` (`None` when
/// `link.to` cannot reach `dest`) — the statistics `routes_towards` gives it.
fn via(link: &Link, row: &[Option<RouteEntry>], dest: BrokerId) -> Option<RouteEntry> {
    let downstream = if link.to == dest {
        PathStats::local()
    } else {
        row[link.to.index()]?.stats
    };
    Some(RouteEntry {
        next_hop: link.to,
        next_link: link.id,
        stats: downstream.extend(link.quality.rate_distribution()),
    })
}

/// Whether `candidate` wins over `current` in Dijkstra's order: lower path
/// cost, then lower next hop, then lower link id (the first relaxation).
fn beats(candidate: &RouteEntry, current: Option<&RouteEntry>) -> bool {
    let Some(current) = current else {
        return true;
    };
    let (a, b) = (candidate.stats.mean_rate(), current.stats.mean_rate());
    a < b
        || (a == b
            && (candidate.next_hop, candidate.next_link) < (current.next_hop, current.next_link))
}

// Links pulled from the adjacency lists by `Routing::routes_towards` and
// `Routing::repair_row` on this thread — the complexity guards' counter (a
// scan of every link per settled broker shows up here as
// `brokers × links`).
#[cfg(test)]
thread_local! {
    static LINKS_EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Routing {
    /// Computes single-path routes for every (source, destination) pair.
    pub fn compute(graph: &OverlayGraph) -> Routing {
        Self::compute_filtered(graph, |_| true)
    }

    /// Like [`compute`](Self::compute), but only links for which `usable`
    /// returns true participate — the from-scratch oracle that
    /// [`update_for_link_change`](Self::update_for_link_change), which
    /// repairs the routes in place when links fail or recover mid-run, is
    /// held to.
    pub fn compute_filtered(graph: &OverlayGraph, usable: impl Fn(LinkId) -> bool) -> Routing {
        let n = graph.broker_count();
        let mut scratch = TreeScratch::default();
        let table = (0..n)
            .map(|dest_raw| {
                let mut row = Vec::new();
                let dest = BrokerId::new(dest_raw as u32);
                Self::routes_towards(graph, dest, &usable, &mut scratch, &mut row);
                row
            })
            .collect();
        Routing {
            table,
            broker_count: n,
        }
    }

    /// Dijkstra rooted at the destination over reversed links.
    ///
    /// Fills `entry` with, for every source broker, the first hop of its
    /// minimum mean-rate path towards `dest` together with the accumulated
    /// path statistics (`None` for `dest` itself and for sources that cannot
    /// reach it).
    ///
    /// **Complexity:** `O(E log V)` per tree — each settled broker relaxes
    /// only its own incoming links ([`OverlayGraph::incoming`]), so every
    /// link is examined at most once.
    ///
    /// **Order contract:** among equal-cost candidates with the same next
    /// hop the first relaxation wins, and `incoming` yields ascending link
    /// ids, so parallel equal-cost links resolve to the lowest id
    /// ([`repair_row`](Self::repair_row)'s tie-break relies on this).
    fn routes_towards(
        graph: &OverlayGraph,
        dest: BrokerId,
        usable: &impl Fn(LinkId) -> bool,
        scratch: &mut TreeScratch,
        entry: &mut Vec<Option<RouteEntry>>,
    ) {
        let n = graph.broker_count();
        let TreeScratch { dist, done, heap } = scratch;
        dist.clear();
        dist.resize(n, f64::INFINITY);
        done.clear();
        done.resize(n, false);
        heap.clear();
        entry.clear();
        entry.resize(n, None);

        dist[dest.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            broker: dest,
        });

        // We relax *incoming* links of the settled broker: if broker `v` can
        // reach `dest` with cost d(v), then any broker `u` with a link u -> v
        // can reach it with cost d(v) + mean_rate(u -> v), taking u's first
        // hop to be v.
        while let Some(HeapEntry { dist: d, broker: v }) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            for link in graph.incoming(v) {
                #[cfg(test)]
                LINKS_EXAMINED.with(|c| c.set(c.get() + 1));
                let u = link.from;
                if done[u.index()] || !usable(link.id) {
                    continue;
                }
                let weight = link.quality.rate_distribution().mean();
                let candidate = d + weight;
                let better = candidate < dist[u.index()]
                    || (candidate == dist[u.index()]
                        && entry[u.index()].map(|e| v < e.next_hop).unwrap_or(true));
                if better {
                    dist[u.index()] = candidate;
                    // Path stats of u: the link u -> v followed by v's path.
                    let downstream = match entry[v.index()] {
                        Some(e) => e.stats,
                        None => PathStats::local(),
                    };
                    entry[u.index()] = Some(RouteEntry {
                        next_hop: v,
                        next_link: link.id,
                        stats: downstream.extend(link.quality.rate_distribution()),
                    });
                    heap.push(HeapEntry {
                        dist: candidate,
                        broker: u,
                    });
                }
            }
        }
    }

    /// Incrementally updates the routes after a batch of link liveness
    /// changes, repairing every destination tree in place, and returns the
    /// set of `(source, destination)` pairs whose route entry changed.
    ///
    /// `removed` are links that were usable when this routing was last
    /// computed and are not any more; `added` the reverse; `usable` must
    /// describe the *post-change* liveness. The result is **bit-identical**
    /// to [`compute_filtered`](Self::compute_filtered) over the same graph
    /// and `usable` predicate (`tests/properties.rs` pins this against the
    /// from-scratch oracle):
    ///
    /// * removing a link that no route entry of a destination uses cannot
    ///   change that destination's tree — the chosen entry at every source
    ///   is the lexicographic minimum `(path cost, next hop)` over its
    ///   candidates, and the removal only deletes non-winning candidates;
    /// * adding a link `u -> v` that does not beat `u`'s current
    ///   `(cost, next hop)` cannot change anything either: any path through
    ///   the new link costs at least `cost(x, u) + cost(u, dest)` for every
    ///   source `x`, which never undercuts `x`'s current cost.
    ///
    /// `repair_row` makes exactly these two checks before anything else
    /// (its steps 1 and 3), so a tree that passes both costs
    /// `|removed| + |added|` link lookups and is neither touched nor counted
    /// in [`RouteDelta::dests_repaired()`]. A tree that fails one is repaired:
    /// the repair touches only the sources
    /// below a removed tree edge and those whose entry improves; the delta
    /// diffs exactly those sources (statistics included — an equal-cost
    /// tree swap still changes downstream variance), so it is exact. A
    /// repaired row examines at most `|added| + Σ (in-degree + out-degree)`
    /// links over the sources it touches, plus the in-degree once more for
    /// each source cut off by a removal — against every link of the graph
    /// for a fresh Dijkstra.
    ///
    /// **Precondition:** every link mean is at least
    /// [`MIN_RATE_MS_PER_KB`] (> 0), which `LinkQuality::fixed` and the
    /// engine's estimation-error floor guarantee. With positive weights the
    /// lexicographic-min `(cost, next hop, link id)` entry of every source
    /// is a unique fixpoint, so the repair and a fresh Dijkstra agree to
    /// the bit; debug builds assert it.
    pub fn update_for_link_change(
        &mut self,
        graph: &OverlayGraph,
        usable: impl Fn(LinkId) -> bool,
        removed: &[LinkId],
        added: &[LinkId],
    ) -> RouteDelta {
        debug_assert!(removed.iter().all(|&l| !usable(l)), "removed must be dead");
        debug_assert!(added.iter().all(|&l| usable(l)), "added must be alive");
        debug_assert!(
            graph
                .links()
                .all(|l| l.quality.rate_distribution().mean() >= MIN_RATE_MS_PER_KB),
            "the repair needs every link mean >= MIN_RATE_MS_PER_KB"
        );
        let n = self.broker_count;
        let mut delta = RouteDelta {
            per_source: vec![Vec::new(); n],
            ..RouteDelta::default()
        };
        let mut scratch = RepairScratch::default();
        scratch.flags.resize(n, 0);
        for (dest_raw, row) in self.table.iter_mut().enumerate() {
            let dest = BrokerId::new(dest_raw as u32);
            Self::repair_row(graph, dest, &usable, removed, added, row, &mut scratch);
            if scratch.touched.is_empty() {
                continue;
            }
            delta.dests_repaired += 1;
            for &(src, before) in &scratch.touched {
                if row[src.index()] != before {
                    delta.per_source[src.index()].push(dest);
                    delta.changed_pairs += 1;
                }
            }
        }
        delta
    }

    /// Repairs `row` — `dest`'s tree as it was before the batch — in place
    /// into the tree [`routes_towards`](Self::routes_towards) builds over
    /// the post-batch links, leaving in `scratch.touched` every source whose
    /// entry it may have changed, with the entry before (Ramalingam & Reps'
    /// dynamic shortest-path repair, with Dijkstra's tie-breaks):
    ///
    /// 1. **Cut.** Every source whose path crosses a removed tree edge — the
    ///    subtree below it, found over incoming links — loses its entry.
    /// 2. **Re-seed.** Each cut source takes its best usable out-link to a
    ///    source that was not cut.
    /// 3. **Added links.** An added link that beats its (uncut) source's
    ///    `(cost, next hop, link id)` replaces that entry.
    /// 4. **Settle.** Every source given an entry in 2–3, or by this step,
    ///    settles once, in cost order, Dijkstra-style, relaxing its incoming
    ///    links: an in-neighbour takes the settled source when that beats its
    ///    entry, *or* when it already routes over that link (its statistics
    ///    are refreshed even at equal cost). Cut sources settle here too, so
    ///    one whose cost fell — the batch also restored a cheaper link —
    ///    pulls in sources outside its subtree that had tie-broken away.
    ///
    /// Each step only lowers entries towards the fixpoint (the cut's
    /// re-seeded entries are upper bounds over live paths), and a source
    /// settles once, so the result is the unique fixpoint
    /// `update_for_link_change` documents.
    fn repair_row(
        graph: &OverlayGraph,
        dest: BrokerId,
        usable: &impl Fn(LinkId) -> bool,
        removed: &[LinkId],
        added: &[LinkId],
        row: &mut [Option<RouteEntry>],
        scratch: &mut RepairScratch,
    ) {
        let RepairScratch {
            flags,
            touched,
            cut,
            heap,
        } = scratch;
        touched.clear();
        // Records `x`'s entry before its first change.
        let mut touch = |flags: &mut [u8], x: BrokerId, entry: Option<RouteEntry>| {
            if flags[x.index()] & TOUCHED == 0 {
                flags[x.index()] |= TOUCHED;
                touched.push((x, entry));
            }
        };

        // 1. Cut the subtrees below the removed tree edges.
        cut.clear();
        for &id in removed {
            let u = graph.link(id).from;
            if row[u.index()].is_some_and(|e| e.next_link == id) && flags[u.index()] & CUT == 0 {
                touch(flags, u, row[u.index()]);
                flags[u.index()] |= CUT;
                cut.push(u);
            }
        }
        let mut next = 0;
        while let Some(&y) = cut.get(next) {
            next += 1;
            row[y.index()] = None;
            for link in graph.incoming(y) {
                #[cfg(test)]
                LINKS_EXAMINED.with(|c| c.set(c.get() + 1));
                let x = link.from;
                if flags[x.index()] & CUT == 0
                    && row[x.index()].is_some_and(|e| e.next_link == link.id)
                {
                    touch(flags, x, row[x.index()]);
                    flags[x.index()] |= CUT;
                    cut.push(x);
                }
            }
        }

        // 2. Re-seed every cut source from its out-links to uncut sources.
        for &x in cut.iter() {
            let mut best = None;
            for link in graph.outgoing(x) {
                #[cfg(test)]
                LINKS_EXAMINED.with(|c| c.set(c.get() + 1));
                if flags[link.to.index()] & CUT != 0 || !usable(link.id) {
                    continue;
                }
                if let Some(candidate) = via(link, row, dest) {
                    if beats(&candidate, best.as_ref()) {
                        best = Some(candidate);
                    }
                }
            }
            if let Some(e) = best {
                row[x.index()] = best;
                heap.push(HeapEntry {
                    dist: e.stats.mean_rate(),
                    broker: x,
                });
            }
        }

        // 3. Added links that beat their source's entry (a cut source saw
        //    its own in step 2).
        for &id in added {
            #[cfg(test)]
            LINKS_EXAMINED.with(|c| c.set(c.get() + 1));
            let link = graph.link(id);
            let u = link.from;
            if u == dest || flags[u.index()] & CUT != 0 {
                continue;
            }
            if let Some(candidate) = via(link, row, dest) {
                if beats(&candidate, row[u.index()].as_ref()) {
                    touch(flags, u, row[u.index()]);
                    row[u.index()] = Some(candidate);
                    heap.push(HeapEntry {
                        dist: candidate.stats.mean_rate(),
                        broker: u,
                    });
                }
            }
        }

        // 4. Settle in cost order, relaxing incoming links.
        while let Some(HeapEntry { broker: y, .. }) = heap.pop() {
            if flags[y.index()] & SETTLED != 0 {
                continue;
            }
            flags[y.index()] |= SETTLED;
            for link in graph.incoming(y) {
                #[cfg(test)]
                LINKS_EXAMINED.with(|c| c.set(c.get() + 1));
                let x = link.from;
                if x == dest || flags[x.index()] & SETTLED != 0 || !usable(link.id) {
                    continue;
                }
                let candidate = via(link, row, dest).expect("a settled source reaches dest");
                let current = row[x.index()];
                let takes = current.is_some_and(|e| e.next_link == link.id)
                    || beats(&candidate, current.as_ref());
                if takes && current != Some(candidate) {
                    touch(flags, x, current);
                    row[x.index()] = Some(candidate);
                    heap.push(HeapEntry {
                        dist: candidate.stats.mean_rate(),
                        broker: x,
                    });
                }
            }
        }

        for &(x, _) in touched.iter() {
            flags[x.index()] = 0;
        }
    }

    /// The route entry at `from` towards `to`; `None` when `from == to` or
    /// `to` is unreachable.
    pub fn route(&self, from: BrokerId, to: BrokerId) -> Option<&RouteEntry> {
        self.table
            .get(to.index())
            .and_then(|per_source| per_source.get(from.index()))
            .and_then(|e| e.as_ref())
    }

    /// The full broker path from `from` to `to` (both endpoints included),
    /// or `None` when unreachable. `from == to` yields a single-element path.
    pub fn path(&self, from: BrokerId, to: BrokerId) -> Option<Vec<BrokerId>> {
        let mut path = vec![from];
        let mut current = from;
        let mut guard = 0;
        while current != to {
            let entry = self.route(current, to)?;
            current = entry.next_hop;
            path.push(current);
            guard += 1;
            if guard > self.broker_count {
                // Cycle — should be impossible by construction.
                return None;
            }
        }
        Some(path)
    }

    /// The statistics of the path from `from` to `to` (empty/local when equal).
    pub fn path_stats(&self, from: BrokerId, to: BrokerId) -> Option<PathStats> {
        if from == to {
            return Some(PathStats::local());
        }
        self.route(from, to).map(|e| e.stats)
    }

    /// Checks that following next hops from every source terminates at every
    /// reachable destination (used by integration tests and `validate` in
    /// debug builds).
    pub fn is_consistent(&self) -> bool {
        for dest_raw in 0..self.broker_count {
            for src_raw in 0..self.broker_count {
                let dest = BrokerId::new(dest_raw as u32);
                let src = BrokerId::new(src_raw as u32);
                if src != dest && self.route(src, dest).is_some() && self.path(src, dest).is_none()
                {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_net::link::LinkQuality;
    use bdps_stats::rng::SimRng;

    fn quality(rate: f64) -> LinkQuality {
        LinkQuality::fixed(rate)
    }

    /// B0 - B1 - B3 and B0 - B2 - B3, where the B1 route is cheaper.
    fn diamond() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        let b3 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0));
        g.add_bidirectional_link(b1, b3, quality(50.0));
        g.add_bidirectional_link(b0, b2, quality(80.0));
        g.add_bidirectional_link(b2, b3, quality(80.0));
        g
    }

    #[test]
    fn picks_minimum_mean_rate_path() {
        let g = diamond();
        let r = Routing::compute(&g);
        let entry = r.route(BrokerId::new(0), BrokerId::new(3)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(1));
        assert_eq!(entry.stats.downstream_brokers, 2);
        assert!((entry.stats.mean_rate() - 100.0).abs() < 1e-9);
        assert_eq!(
            r.path(BrokerId::new(0), BrokerId::new(3)).unwrap(),
            vec![BrokerId::new(0), BrokerId::new(1), BrokerId::new(3)]
        );
    }

    #[test]
    fn direct_neighbour_routes() {
        let g = diamond();
        let r = Routing::compute(&g);
        let entry = r.route(BrokerId::new(1), BrokerId::new(0)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(0));
        assert_eq!(entry.stats.downstream_brokers, 1);
        assert!((entry.stats.mean_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn self_route_and_unreachable() {
        let g = diamond();
        let r = Routing::compute(&g);
        assert!(r.route(BrokerId::new(2), BrokerId::new(2)).is_none());
        assert_eq!(
            r.path_stats(BrokerId::new(2), BrokerId::new(2)),
            Some(PathStats::local())
        );

        // A graph with an isolated broker: unreachable routes are None.
        let mut g2 = OverlayGraph::new();
        let a = g2.add_broker(None);
        let b = g2.add_broker(None);
        let _c = g2.add_broker(None);
        g2.add_bidirectional_link(a, b, quality(50.0));
        let r2 = Routing::compute(&g2);
        assert!(r2.route(BrokerId::new(0), BrokerId::new(2)).is_none());
        assert!(r2.path(BrokerId::new(0), BrokerId::new(2)).is_none());
    }

    #[test]
    fn next_hops_are_consistent_with_advertised_stats() {
        let g = diamond();
        let r = Routing::compute(&g);
        assert!(r.is_consistent());
        // Walking the path and summing link means must equal the advertised path mean.
        for from in 0..4u32 {
            for to in 0..4u32 {
                if from == to {
                    continue;
                }
                let from = BrokerId::new(from);
                let to = BrokerId::new(to);
                let stats = r.path_stats(from, to).unwrap();
                let path = r.path(from, to).unwrap();
                let mut sum = 0.0;
                for w in path.windows(2) {
                    sum += g
                        .link_between(w[0], w[1])
                        .unwrap()
                        .quality
                        .rate_distribution()
                        .mean();
                }
                assert!((sum - stats.mean_rate()).abs() < 1e-9);
                assert_eq!(stats.downstream_brokers as usize, path.len() - 1);
            }
        }
    }

    #[test]
    fn filtered_compute_routes_around_dead_links() {
        let g = diamond();
        // Kill both directions of the cheap B0 - B1 edge (links 0 and 1).
        let dead = [LinkId::new(0), LinkId::new(1)];
        let r = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        let entry = r.route(BrokerId::new(0), BrokerId::new(3)).unwrap();
        assert_eq!(entry.next_hop, BrokerId::new(2), "must detour via B2");
        assert!((entry.stats.mean_rate() - 160.0).abs() < 1e-9);
        assert!(r.is_consistent());
        // With every link dead, nothing is reachable.
        let none = Routing::compute_filtered(&g, |_| false);
        assert!(none.route(BrokerId::new(0), BrokerId::new(3)).is_none());
        // The unfiltered computation is unchanged by the refactor.
        let full = Routing::compute(&g);
        assert_eq!(
            full.route(BrokerId::new(0), BrokerId::new(3))
                .unwrap()
                .next_hop,
            BrokerId::new(1)
        );
    }

    /// Applies a liveness change to a cloned routing via the incremental
    /// path and checks it matches a from-scratch recompute exactly,
    /// returning the delta.
    fn update_and_check(
        g: &OverlayGraph,
        routing: &mut Routing,
        dead: &std::collections::HashSet<LinkId>,
        removed: &[LinkId],
        added: &[LinkId],
    ) -> RouteDelta {
        let before = routing.clone();
        let delta = routing.update_for_link_change(g, |l| !dead.contains(&l), removed, added);
        let scratch = Routing::compute_filtered(g, |l| !dead.contains(&l));
        assert_eq!(routing, &scratch, "incremental drifted from scratch");
        // The delta names exactly the pairs that differ from the old table.
        let mut expected = Vec::new();
        for dest in 0..g.broker_count() {
            for src in 0..g.broker_count() {
                let (src_id, dest_id) = (BrokerId::new(src as u32), BrokerId::new(dest as u32));
                if before.route(src_id, dest_id) != scratch.route(src_id, dest_id) {
                    expected.push((src_id, dest_id));
                }
            }
        }
        let mut reported: Vec<(BrokerId, BrokerId)> = (0..g.broker_count() as u32)
            .map(BrokerId::new)
            .flat_map(|src| {
                delta
                    .changed_dests(src)
                    .iter()
                    .map(move |&dest| (src, dest))
            })
            .collect();
        reported.sort_unstable_by_key(|&(s, d)| (d, s));
        expected.sort_unstable_by_key(|&(s, d)| (d, s));
        assert_eq!(reported, expected, "delta must be exact");
        assert_eq!(delta.changed_pairs(), expected.len());
        delta
    }

    #[test]
    fn incremental_update_matches_scratch_and_reports_exact_delta() {
        let g = diamond();
        let mut routing = Routing::compute(&g);
        let mut dead = std::collections::HashSet::new();

        // Kill the cheap B0 -> B1 direction: every route using it moves.
        dead.insert(LinkId::new(0));
        let delta = update_and_check(&g, &mut routing, &dead, &[LinkId::new(0)], &[]);
        assert!(!delta.is_empty());
        assert!(delta
            .changed_dests(BrokerId::new(0))
            .contains(&BrokerId::new(3)));
        assert_eq!(
            routing
                .route(BrokerId::new(0), BrokerId::new(3))
                .unwrap()
                .next_hop,
            BrokerId::new(2)
        );

        // Restore it: the delta must undo exactly what the removal changed.
        dead.remove(&LinkId::new(0));
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[LinkId::new(0)]);
        assert!(!delta.is_empty());
        assert_eq!(routing, Routing::compute(&g));
    }

    /// Line B0 - B1 - B2 on cheap links (links 0..=3) plus a one-way
    /// expensive shortcut B0 -> B2 (link 4) that no shortest path uses
    /// (100 via the line vs 200 direct).
    fn line_with_unused_shortcut() -> OverlayGraph {
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0));
        g.add_bidirectional_link(b1, b2, quality(50.0));
        g.add_link(b0, b2, quality(200.0));
        g
    }

    #[test]
    fn removing_an_unused_link_recomputes_nothing() {
        let g = line_with_unused_shortcut();
        let mut routing = Routing::compute(&g);
        let unused = LinkId::new(4);
        for dest in 0..3u32 {
            for src in 0..3u32 {
                if let Some(e) = routing.route(BrokerId::new(src), BrokerId::new(dest)) {
                    assert_ne!(e.next_link, unused, "the shortcut must be unused");
                }
            }
        }
        let mut dead = std::collections::HashSet::new();
        dead.insert(unused);
        let delta = update_and_check(&g, &mut routing, &dead, &[unused], &[]);
        assert!(delta.is_empty());
        assert_eq!(delta.dests_repaired(), 0, "no tree uses the dead link");
    }

    #[test]
    fn restoring_a_non_improving_link_is_a_no_op() {
        let g = line_with_unused_shortcut();
        // Start with the shortcut dead, then restore it: the line still wins
        // everywhere, so the restoration must not recompute anything.
        let mut dead: std::collections::HashSet<LinkId> = [LinkId::new(4)].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        dead.remove(&LinkId::new(4));
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[LinkId::new(4)]);
        assert!(delta.is_empty());
        assert_eq!(delta.dests_repaired(), 0, "the shortcut never improves");
    }

    #[test]
    fn delta_covers_reachability_transitions() {
        // A line B0 - B1 - B2: killing both directions of the middle edge
        // makes B2 unreachable from B0 (and vice versa); entries vanish.
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let b2 = g.add_broker(None);
        g.add_bidirectional_link(b0, b1, quality(50.0)); // links 0, 1
        g.add_bidirectional_link(b1, b2, quality(50.0)); // links 2, 3
        let mut routing = Routing::compute(&g);
        let batch = [LinkId::new(2), LinkId::new(3)];
        let mut dead: std::collections::HashSet<LinkId> = batch.into_iter().collect();
        let delta = update_and_check(&g, &mut routing, &dead, &batch, &[]);
        assert!(routing.route(b0, b2).is_none());
        assert!(delta.changed_dests(b0).contains(&b2));
        // Restoring re-creates the entries bit-for-bit.
        dead.clear();
        update_and_check(&g, &mut routing, &dead, &[], &batch);
        assert_eq!(routing, Routing::compute(&g));
        assert!(routing.route(b0, b2).is_some());
    }

    #[test]
    fn parallel_equal_cost_links_tie_break_on_link_id() {
        // Two parallel links B0 -> B1 with identical cost: the scratch
        // Dijkstra keeps the lower link id, so restoring the lower-id
        // duplicate while the higher-id one carries the route must flip
        // `next_link` — a change invisible to the (cost, next hop) pair.
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(None);
        let b1 = g.add_broker(None);
        let low = g.add_link(b0, b1, quality(50.0)); // link 0
        let high = g.add_link(b0, b1, quality(50.0)); // link 1, same cost
        g.add_link(b1, b0, quality(50.0)); // link 2, so b1 routes back

        // Start with the low-id duplicate dead: routes use the high-id link.
        let mut dead: std::collections::HashSet<LinkId> = [low].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        assert_eq!(routing.route(b0, b1).unwrap().next_link, high);

        // Restore it: the incremental update must flip next_link to the
        // lower id, exactly like the from-scratch recompute.
        dead.clear();
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[low]);
        assert!(!delta.is_empty(), "the next_link flip must be reported");
        assert_eq!(routing.route(b0, b1).unwrap().next_link, low);
    }

    #[test]
    fn mixed_batches_with_net_no_op_links() {
        // Simultaneously remove the cheap path's forward links and restore
        // nothing: then hand the incremental path a batch where one link
        // flapped down and up (net no change) alongside a real removal.
        let g = diamond();
        let mut routing = Routing::compute(&g);
        let mut dead = std::collections::HashSet::new();
        dead.insert(LinkId::new(2)); // B1 -> B3 dies
        let delta = update_and_check(&g, &mut routing, &dead, &[LinkId::new(2)], &[]);
        assert!(!delta.is_empty());
        // A net-no-op flap is simply absent from both removed and added:
        // the same batch shape the engine produces after coalescing.
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[]);
        assert!(delta.is_empty());
    }

    /// A mixed batch cuts `b2`'s tree edge to the destination `b3` and
    /// restores a cheaper parallel link to the same neighbour. `b1` sits
    /// outside the cut subtree: its cost-140 tie between next hops `b0` and
    /// `b2` broke towards `b0`, and must now move to `b2` at cost 100. Only
    /// the settle of the cut source `b2` can tell it.
    #[test]
    fn a_cut_source_that_gets_cheaper_pulls_in_a_source_that_tie_broke_away() {
        let mut g = OverlayGraph::new();
        let b: Vec<BrokerId> = (0..4).map(|_| g.add_broker(None)).collect();
        g.add_link(b[1], b[0], quality(40.0)); // link 0
        g.add_link(b[0], b[3], quality(100.0)); // link 1
        g.add_link(b[1], b[2], quality(40.0)); // link 2
        let cut = g.add_link(b[2], b[3], quality(100.0)); // link 3: b2's tree edge
        let cheaper = g.add_link(b[2], b[3], quality(60.0)); // link 4

        let mut dead: std::collections::HashSet<LinkId> = [cheaper].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        let before = *routing.route(b[1], b[3]).unwrap();
        assert_eq!((before.next_hop, before.stats.mean_rate()), (b[0], 140.0));
        assert_eq!(routing.route(b[2], b[3]).unwrap().next_link, cut);

        dead = [cut].into_iter().collect();
        let delta = update_and_check(&g, &mut routing, &dead, &[cut], &[cheaper]);
        let after = routing.route(b[1], b[3]).unwrap();
        assert_eq!((after.next_hop, after.stats.mean_rate()), (b[2], 100.0));
        assert!(delta.changed_dests(b[1]).contains(&b[3]));
    }

    /// A restored link gives `b2` a second cost-100 path to `b3` through the
    /// lower next hop `b0`, with a larger variance: the tree edge flips at
    /// equal cost, and the statistics of `b2`'s descendants `b1` and `b4`
    /// must follow although none of their `(cost, next hop, link)` moves.
    #[test]
    fn an_equal_cost_tree_edge_flip_refreshes_every_descendants_stats() {
        let mut g = OverlayGraph::new();
        let b: Vec<BrokerId> = (0..5).map(|_| g.add_broker(None)).collect();
        let wide = LinkQuality::normal(50.0, 9.0);
        g.add_link(b[0], b[3], wide); // link 0
        g.add_link(b[2], b[3], LinkQuality::normal(100.0, 2.0)); // link 1
        let restored = g.add_link(b[2], b[0], wide); // link 2
        g.add_link(b[1], b[2], quality(20.0)); // link 3
        g.add_link(b[4], b[1], quality(20.0)); // link 4

        let mut dead: std::collections::HashSet<LinkId> = [restored].into_iter().collect();
        let mut routing = Routing::compute_filtered(&g, |l| !dead.contains(&l));
        let old: Vec<RouteEntry> = [b[1], b[4]]
            .iter()
            .map(|&x| *routing.route(x, b[3]).unwrap())
            .collect();

        dead.clear();
        let delta = update_and_check(&g, &mut routing, &dead, &[], &[restored]);
        assert_eq!(routing.route(b[2], b[3]).unwrap().next_hop, b[0]);
        for (&x, old) in [b[1], b[4]].iter().zip(&old) {
            let new = routing.route(x, b[3]).unwrap();
            assert_eq!((new.next_hop, new.next_link), (old.next_hop, old.next_link));
            assert_eq!(new.stats.mean_rate(), old.stats.mean_rate());
            assert!(new.stats.rate.variance() > old.stats.rate.variance());
            assert!(delta.changed_dests(x).contains(&b[3]));
        }
    }

    /// The pre-adjacency Dijkstra, kept verbatim as the oracle: it finds a
    /// settled broker's incoming links by scanning *every* link —
    /// `O(V · E)` per tree — which fixes the relaxation order (ascending
    /// link id) the adjacency-driven version must reproduce.
    fn reference_routes_towards(
        graph: &OverlayGraph,
        dest: BrokerId,
        usable: &impl Fn(LinkId) -> bool,
    ) -> Vec<Option<RouteEntry>> {
        let n = graph.broker_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut entry: Vec<Option<RouteEntry>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[dest.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            broker: dest,
        });
        while let Some(HeapEntry { dist: d, broker: v }) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            for link in graph.links().filter(|l| l.to == v && usable(l.id)) {
                let u = link.from;
                if done[u.index()] {
                    continue;
                }
                let weight = link.quality.rate_distribution().mean();
                let candidate = d + weight;
                let better = candidate < dist[u.index()]
                    || (candidate == dist[u.index()]
                        && entry[u.index()].map(|e| v < e.next_hop).unwrap_or(true));
                if better {
                    dist[u.index()] = candidate;
                    let downstream = match entry[v.index()] {
                        Some(e) => e.stats,
                        None => PathStats::local(),
                    };
                    let stats = PathStats {
                        downstream_brokers: downstream.downstream_brokers + 1,
                        rate: downstream
                            .rate
                            .add_independent(&link.quality.rate_distribution()),
                    };
                    entry[u.index()] = Some(RouteEntry {
                        next_hop: v,
                        next_link: link.id,
                        stats,
                    });
                    heap.push(HeapEntry {
                        dist: candidate,
                        broker: u,
                    });
                }
            }
        }
        entry
    }

    fn reference_compute(graph: &OverlayGraph, usable: impl Fn(LinkId) -> bool) -> Routing {
        let n = graph.broker_count();
        Routing {
            table: (0..n)
                .map(|d| reference_routes_towards(graph, BrokerId::new(d as u32), &usable))
                .collect(),
            broker_count: n,
        }
    }

    /// A seeded random directed graph built to provoke every tie-break:
    /// costs come from three values (equal-cost alternatives everywhere),
    /// some links are one-way, some are exact parallel duplicates, and the
    /// rates carry variance so `PathStats` differ between equal-cost trees.
    fn random_graph(rng: &mut SimRng) -> OverlayGraph {
        let mut g = OverlayGraph::new();
        let n = rng.uniform_usize(3, 13);
        let brokers: Vec<BrokerId> = (0..n).map(|_| g.add_broker(None)).collect();
        for _ in 0..rng.uniform_usize(n, 4 * n) {
            let picked = rng.choose_distinct(n, 2);
            let (a, b) = (brokers[picked[0]], brokers[picked[1]]);
            let mean = *rng.choose(&[20.0, 40.0, 60.0]);
            let q = LinkQuality::normal(mean, rng.uniform_range(1.0, 9.0));
            match rng.uniform_usize(0, 4) {
                0 => {
                    g.add_link(a, b, q); // one-way
                }
                1 => {
                    g.add_link(a, b, q);
                    g.add_link(a, b, q); // parallel, equal cost
                }
                _ => {
                    g.add_bidirectional_link(a, b, q);
                }
            }
        }
        g
    }

    fn random_dead_set(rng: &mut SimRng, links: usize) -> Vec<bool> {
        let p = rng.uniform_range(0.0, 0.5);
        (0..links).map(|_| rng.chance(p)).collect()
    }

    #[test]
    fn adjacency_dijkstra_is_bit_identical_to_the_link_scan_reference() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(0x00D1_7857 + seed);
            let g = random_graph(&mut rng);
            let mut dead = random_dead_set(&mut rng, g.link_count());
            // `Routing: PartialEq` compares every entry including PathStats.
            let mut routing = Routing::compute_filtered(&g, |l| !dead[l.index()]);
            assert_eq!(
                routing,
                reference_compute(&g, |l| !dead[l.index()]),
                "seed {seed}: scratch compute"
            );
            assert_eq!(Routing::compute(&g), reference_compute(&g, |_| true));
            // A walk of random liveness batches through the incremental path.
            for step in 0..8 {
                let next = random_dead_set(&mut rng, g.link_count());
                let toggled = |now_dead: bool| -> Vec<LinkId> {
                    (0..g.link_count())
                        .filter(|&i| dead[i] != next[i] && next[i] == now_dead)
                        .map(|i| LinkId::new(i as u32))
                        .collect()
                };
                let (removed, added) = (toggled(true), toggled(false));
                dead = next;
                routing.update_for_link_change(&g, |l| !dead[l.index()], &removed, &added);
                assert_eq!(
                    routing,
                    reference_compute(&g, |l| !dead[l.index()]),
                    "seed {seed} step {step}: incremental update"
                );
            }
        }
    }

    /// Most links any one tree of `g` pulled from the adjacency lists.
    fn max_links_examined_per_tree(g: &OverlayGraph, usable: impl Fn(LinkId) -> bool) -> usize {
        let mut scratch = TreeScratch::default();
        let mut row = Vec::new();
        (0..g.broker_count())
            .map(|d| {
                LINKS_EXAMINED.with(|c| c.set(0));
                let dest = BrokerId::new(d as u32);
                Routing::routes_towards(g, dest, &usable, &mut scratch, &mut row);
                LINKS_EXAMINED.with(|c| c.get()) as usize
            })
            .max()
            .unwrap_or(0)
    }

    /// The regression this guards against is a scan of the whole link list
    /// per settled broker: `settled × links` examined per tree, where the
    /// adjacency walk examines each link at most once. Counted, not timed.
    #[test]
    fn a_tree_examines_each_link_at_most_once() {
        for seed in 0..16u64 {
            let mut rng = SimRng::seed_from(0xC057 + seed);
            let g = random_graph(&mut rng);
            // Everything alive: the bound is the usable-link count.
            assert!(max_links_examined_per_tree(&g, |_| true) <= g.link_count() + 1);
            // Dead links into a settled broker are still looked at (and
            // skipped), so with outages the bound stays the link count.
            let dead = random_dead_set(&mut rng, g.link_count());
            assert!(max_links_examined_per_tree(&g, |l| !dead[l.index()]) <= g.link_count() + 1);
        }
    }

    /// The complexity certificate of the repair, counted rather than timed:
    /// on a layered mesh at two sizes (60 and 240 brokers), one upper-tier
    /// link pair goes down and then comes back up, and every repaired row
    /// examines at most `|added| + Σ (in-degree + out-degree)` links over
    /// the sources it can touch — those whose old path crossed a removed
    /// link (the cut, whose in-links are walked once more to find it) and
    /// those whose entry changes, both found here from outside the repair.
    #[test]
    fn a_repair_examines_only_the_links_of_the_sources_it_touches() {
        use crate::topology::{LayeredMeshConfig, Topology};
        for (size, layer_sizes) in [(60, vec![4, 8, 16, 32]), (240, vec![16, 32, 64, 128])] {
            let config = LayeredMeshConfig {
                layer_sizes,
                fan_in: vec![0, 2, 2],
                publishers_per_first_layer_broker: 1,
                subscribers_per_edge_broker: 1,
            };
            let mut rng = SimRng::seed_from(0x7EE5 + size as u64);
            let topo =
                Topology::layered_mesh(&config, &mut rng, LinkQuality::paper_random).unwrap();
            let g = &topo.graph;
            let n = g.broker_count();
            assert_eq!(n, size);
            let pair = [LinkId::new(0), LinkId::new(1)];
            for &l in &pair {
                let link = g.link(l);
                let layers = (g.broker(link.from).layer, g.broker(link.to).layer);
                assert!(matches!(layers, (Some(0), Some(1)) | (Some(1), Some(0))));
            }
            let in_degree = |x: usize| g.incoming(BrokerId::new(x as u32)).count();
            let out_degree = |x: usize| g.outgoing(BrokerId::new(x as u32)).count();

            let mut alive = vec![true; g.link_count()];
            let mut routing = Routing::compute(g);
            let mut scratch = RepairScratch::default();
            scratch.flags.resize(n, 0);
            let (mut repaired, mut examined_total) = (0, 0);
            for (removed, added) in [(&pair[..], &[][..]), (&[][..], &pair[..])] {
                for &l in removed.iter().chain(added) {
                    alive[l.index()] = added.contains(&l);
                }
                let usable = |l: LinkId| alive[l.index()];
                let scratch_routing = Routing::compute_filtered(g, usable);
                for d in 0..n {
                    let dest = BrokerId::new(d as u32);
                    let row = &mut routing.table[d];
                    let crosses_removed = |mut at: usize| {
                        while let Some(e) = row[at] {
                            if removed.contains(&e.next_link) {
                                return true;
                            }
                            at = e.next_hop.index();
                        }
                        false
                    };
                    let bound = added.len()
                        + (0..n)
                            .map(|x| {
                                let cut = crosses_removed(x);
                                let changed = row[x] != scratch_routing.table[d][x];
                                let both = in_degree(x) + out_degree(x);
                                (if cut || changed { both } else { 0 })
                                    + (if cut { in_degree(x) } else { 0 })
                            })
                            .sum::<usize>();
                    LINKS_EXAMINED.with(|c| c.set(0));
                    Routing::repair_row(g, dest, &usable, removed, added, row, &mut scratch);
                    let examined = LINKS_EXAMINED.with(|c| c.get()) as usize;
                    assert!(
                        examined <= bound,
                        "{n} brokers, dest {dest}: examined {examined} links, bound {bound}"
                    );
                    repaired += usize::from(!scratch.touched.is_empty());
                    examined_total += examined;
                }
                assert_eq!(routing, scratch_routing, "{n} brokers: repair drifted");
            }
            // A fresh Dijkstra per repaired row examines every link; the
            // repair stays well under that (≈ 6× at 60 brokers, ≈ 10× at 240).
            assert!(repaired > 0);
            assert!(
                examined_total * 5 < repaired * g.link_count(),
                "{n} brokers: {examined_total} links examined over {repaired} rows"
            );
        }
    }

    #[test]
    fn asymmetric_directed_links_respected() {
        // Only a one-way link B0 -> B1 exists; B1 cannot reach B0.
        let mut g = OverlayGraph::new();
        let a = g.add_broker(None);
        let b = g.add_broker(None);
        g.add_link(a, b, quality(50.0));
        let r = Routing::compute(&g);
        assert!(r.route(a, b).is_some());
        assert!(r.route(b, a).is_none());
    }
}
