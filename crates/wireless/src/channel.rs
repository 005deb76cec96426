//! The shared radio channel: geometry, carrier sensing and collisions.
//!
//! We use the unit-disc model the paper (and ns-2's default PHY) assumes:
//! a frame is decodable within the card's nominal range and the medium is
//! sensed busy within a larger carrier-sense range (ns-2's classic
//! 550 m/250 m ratio, i.e. 2.2×). Control frames (RTS/CTS) always use
//! maximum power, so channel *reservations* cover the full footprint even
//! when data frames are power-controlled — which is why power control does
//! not shrink the interference footprint here (a known property of
//! 802.11-style TPC, and the conservative choice).
//!
//! Collision rule: a reception at node `r` spanning `[start, end)` is
//! corrupted if any *other* transmission overlapping that interval has a
//! sender within carrier-sense range of `r` (hidden-terminal losses).
//! Transmissions are logged for the check and pruned as time advances.
//!
//! # Performance architecture
//!
//! All geometry queries run on a **uniform spatial grid**: node positions
//! are bucketed into square cells of side `cs_range_m`, so any two nodes
//! within carrier-sense range (and a fortiori within decoding range) sit
//! in the same or adjacent cells. Neighbour sets are rebuilt from each
//! node's 3×3 cell neighbourhood — O(n · k) for k nodes per
//! neighbourhood instead of the old O(n²) pairwise scan — and
//! [`Channel::update_positions`] refreshes cell membership incrementally,
//! only re-bucketing nodes that crossed a cell boundary. Distance
//! comparisons use squared distances throughout (no `sqrt` on any query
//! path), and carrier-sense/collision scans reject far-away transmissions
//! with an integer cell-coordinate comparison before touching f64 math.
//!
//! The collision log is pruned in amortised O(1) per transmission: the
//! prune floor is the earliest start among live (and just-ended)
//! transmissions — the only intervals future [`Channel::reception_corrupted`]
//! queries can ask about — and the `retain` pass runs only once the log
//! has doubled since the last prune, so the log stays within a small
//! constant factor of the live set instead of accumulating a fixed
//! 100 ms history of the whole network.

use crate::frame::NodeId;
use eend_sim::SimTime;

/// Default carrier-sense range as a multiple of transmission range
/// (ns-2's 550 m / 250 m).
pub const CS_RANGE_FACTOR: f64 = 2.2;

/// How long a transmission must have been on the air before other nodes
/// can sense it (one 802.11 slot). Transmissions started inside this
/// *vulnerable window* are invisible to carrier sensing — the mechanism
/// behind slotted collisions and the density-driven breakdown of
/// flooding (Table 2).
pub const SENSE_DELAY: eend_sim::SimDuration = eend_sim::SimDuration::from_micros(20);

/// Log prunes are batched: skip the `retain` pass until the log has
/// grown to at least twice its post-prune size (and past this floor).
const PRUNE_MIN: usize = 32;

/// One transmission on the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transmission {
    sender: NodeId,
    receiver: Option<NodeId>,
    start: SimTime,
    end: SimTime,
}

/// A node's grid cell: its column and row, for the division-free
/// adjacency test, next to its flat row-major index, for bucket lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    x: u32,
    y: u32,
    flat: u32,
}

/// Uniform spatial hash: positions bucketed into square cells of side
/// `cell_m`, sized once from the initial deployment's bounding box.
/// Positions outside the box map to the border cells — clamping is
/// non-expansive, so any two nodes within one cell side of each other
/// still land in the same or adjacent cells.
#[derive(Debug, Clone)]
struct Grid {
    cell_m: f64,
    origin: (f64, f64),
    cols: usize,
    rows: usize,
    /// Node ids per cell, row-major; membership order is arbitrary
    /// (queries re-sort or are order-insensitive predicates).
    cells: Vec<Vec<NodeId>>,
    /// Cell of every node.
    cell_of: Vec<Cell>,
}

impl Grid {
    fn new(positions: &[(f64, f64)], cell_m: f64) -> Grid {
        let (min_x, min_y, max_x, max_y) = crate::mobility::bounding_box(positions);
        let span = |lo: f64, hi: f64| (((hi - lo) / cell_m).floor() as usize).saturating_add(1);
        let (cols, rows) = if positions.is_empty() {
            (1, 1)
        } else {
            (span(min_x, max_x), span(min_y, max_y))
        };
        let mut g = Grid {
            cell_m,
            origin: (min_x, min_y),
            cols,
            rows,
            cells: (0..cols * rows).map(|_| Vec::new()).collect(),
            cell_of: Vec::with_capacity(positions.len()),
        };
        for (u, &p) in positions.iter().enumerate() {
            let c = g.cell(p);
            g.cell_of.push(c);
            g.cells[c.flat as usize].push(u);
        }
        g
    }

    #[inline]
    fn cell_coords(&self, p: (f64, f64)) -> (usize, usize) {
        let cx = ((p.0 - self.origin.0) / self.cell_m).floor();
        let cy = ((p.1 - self.origin.1) / self.cell_m).floor();
        // Clamp: mobility never leaves the initial bounding box, but the
        // grid must stay correct for any caller-supplied positions.
        let cx = if cx.is_finite() && cx > 0.0 { (cx as usize).min(self.cols - 1) } else { 0 };
        let cy = if cy.is_finite() && cy > 0.0 { (cy as usize).min(self.rows - 1) } else { 0 };
        (cx, cy)
    }

    #[inline]
    fn cell(&self, p: (f64, f64)) -> Cell {
        let (cx, cy) = self.cell_coords(p);
        Cell { x: cx as u32, y: cy as u32, flat: (cy * self.cols + cx) as u32 }
    }

    /// `true` if cells `a` and `b` are the same or adjacent
    /// (8-neighbourhood) — the necessary condition for their occupants to
    /// be within one cell side of each other. Compares the stored
    /// coordinates, so the hot carrier-sense and collision scans pay no
    /// division to recover them from the flat index.
    #[inline]
    fn adjacent(a: Cell, b: Cell) -> bool {
        a.x.abs_diff(b.x) <= 1 && a.y.abs_diff(b.y) <= 1
    }

    /// Visits every node in the 3×3 cell neighbourhood around `p`.
    #[inline]
    fn for_each_candidate(&self, p: (f64, f64), mut f: impl FnMut(NodeId)) {
        let (cx, cy) = self.cell_coords(p);
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                for &v in &self.cells[y * self.cols + x] {
                    f(v);
                }
            }
        }
    }

    /// Re-buckets any node whose position crossed a cell boundary.
    fn refresh(&mut self, positions: &[(f64, f64)]) {
        for (u, &p) in positions.iter().enumerate() {
            let c = self.cell(p);
            let old = self.cell_of[u];
            if c != old {
                let cell = &mut self.cells[old.flat as usize];
                let at = cell.iter().position(|&w| w == u).expect("node in its cell");
                cell.swap_remove(at);
                self.cells[c.flat as usize].push(u);
                self.cell_of[u] = c;
            }
        }
    }
}

/// The shared medium: node geometry plus in-flight transmissions.
#[derive(Debug, Clone)]
pub struct Channel {
    positions: Vec<(f64, f64)>,
    range_m: f64,
    cs_range_m: f64,
    /// `range_m²` / `cs_range_m²`: query comparisons are sqrt-free.
    range_sq: f64,
    cs_range_sq: f64,
    neighbors: Vec<Vec<NodeId>>,
    grid: Grid,
    live: Vec<Transmission>,
    log: Vec<Transmission>,
    /// Batched pruning: next `log` length that triggers a retain pass.
    prune_at: usize,
}

impl Channel {
    /// Creates a channel over node positions with the given transmission
    /// range; carrier-sense range is [`CS_RANGE_FACTOR`]×.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive.
    pub fn new(positions: Vec<(f64, f64)>, range_m: f64) -> Channel {
        assert!(range_m > 0.0, "range must be positive");
        let cs_range_m = range_m * CS_RANGE_FACTOR;
        let grid = Grid::new(&positions, cs_range_m);
        let n = positions.len();
        let mut c = Channel {
            positions,
            range_m,
            cs_range_m,
            range_sq: range_m * range_m,
            cs_range_sq: cs_range_m * cs_range_m,
            neighbors: (0..n).map(|_| Vec::new()).collect(),
            grid,
            live: Vec::new(),
            log: Vec::new(),
            prune_at: PRUNE_MIN,
        };
        c.rebuild_neighbors();
        c
    }

    /// Replaces all node positions (mobility) and recomputes the
    /// neighbour sets. In-flight transmissions keep their outcome from
    /// the geometry at their start, consistent with sub-second ticks.
    ///
    /// # Panics
    ///
    /// Panics if the number of positions changes.
    pub fn set_positions(&mut self, positions: Vec<(f64, f64)>) {
        assert_eq!(positions.len(), self.positions.len(), "node count is fixed");
        self.positions = positions;
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors();
    }

    /// Mutates the positions in place (the allocation-free mobility
    /// path), then refreshes the grid incrementally and rebuilds the
    /// neighbour sets. Equivalent to [`Channel::set_positions`] without
    /// constructing a new position vector.
    pub fn update_positions(&mut self, step: impl FnOnce(&mut [(f64, f64)])) {
        step(&mut self.positions);
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors();
    }

    /// [`Channel::update_positions`] fused with per-node neighbour
    /// accounting: `counts[u]` is set to the number of `u`'s new
    /// neighbours satisfying `is_active`, computed while each freshly
    /// built list is still cache-hot. This replaces a second full pass
    /// over the neighbour sets per mobility tick (the counts are
    /// identical to recomputing after the rebuild — same lists, same
    /// predicate).
    pub fn update_positions_with_counts(
        &mut self,
        step: impl FnOnce(&mut [(f64, f64)]),
        is_active: impl Fn(NodeId) -> bool,
        counts: &mut [u32],
    ) {
        step(&mut self.positions);
        self.grid.refresh(&self.positions);
        self.rebuild_neighbors_with(|u, nb| {
            counts[u] = nb.iter().filter(|&&w| is_active(w)).count() as u32;
        });
    }

    /// Current position of node `u`, metres.
    pub fn position(&self, u: NodeId) -> (f64, f64) {
        self.positions[u]
    }

    /// Rebuilds every per-node neighbour list: candidates come from the
    /// grid's 3×3 cell neighbourhood (cells are `cs_range_m` wide ≥
    /// `range_m`, so no in-range pair is missed), filtered by squared
    /// distance, sorted ascending — the same order the old O(n²)
    /// triangular scan produced, which pins event ordering. Deployments
    /// too small for the grid to cull anything (≤ 3×3 cells, where every
    /// 3×3 neighbourhood is the whole grid) take a triangular pairwise
    /// scan instead: half the distance checks, no per-node sort needed
    /// (both sides are filled in ascending order).
    fn rebuild_neighbors(&mut self) {
        self.rebuild_neighbors_with(|_, _| {});
    }

    /// [`Channel::rebuild_neighbors`] with a per-node hook: `note(u,
    /// nb)` fires once per node with its finished (sorted) neighbour
    /// list, letting callers derive per-node aggregates without a second
    /// pass.
    fn rebuild_neighbors_with(&mut self, mut note: impl FnMut(NodeId, &[NodeId])) {
        let n = self.positions.len();
        if self.grid.cols <= 3 && self.grid.rows <= 3 {
            for nb in &mut self.neighbors {
                nb.clear();
            }
            for u in 0..n {
                let pu = self.positions[u];
                for v in (u + 1)..n {
                    if dist_sq(pu, self.positions[v]) <= self.range_sq {
                        self.neighbors[u].push(v);
                        self.neighbors[v].push(u);
                    }
                }
            }
            for u in 0..n {
                note(u, &self.neighbors[u]);
            }
            return;
        }
        for u in 0..n {
            let mut nb = std::mem::take(&mut self.neighbors[u]);
            nb.clear();
            let pu = self.positions[u];
            self.grid.for_each_candidate(pu, |v| {
                if v != u && dist_sq(pu, self.positions[v]) <= self.range_sq {
                    nb.push(v);
                }
            });
            nb.sort_unstable();
            note(u, &nb);
            self.neighbors[u] = nb;
        }
    }

    /// Number of nodes sharing the medium.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Transmission range, metres.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// Carrier-sense range, metres ([`CS_RANGE_FACTOR`] × the
    /// transmission range; also the spatial grid's cell side).
    pub fn cs_range_m(&self) -> f64 {
        self.cs_range_m
    }

    /// Distance between two nodes, metres.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        dist_sq(self.positions[u], self.positions[v]).sqrt()
    }

    /// Nodes within transmission range of `u`, ascending.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[u]
    }

    /// `true` if `v` is within decoding range of `u`.
    pub fn in_range(&self, u: NodeId, v: NodeId) -> bool {
        u != v && dist_sq(self.positions[u], self.positions[v]) <= self.range_sq
    }

    /// Carrier sense at a prospective sender: `true` if any live
    /// transmission that has been on the air for at least [`SENSE_DELAY`]
    /// has a participant within carrier-sense range of `u`. Younger
    /// transmissions are not yet detectable — the vulnerable window.
    pub fn busy_near(&self, u: NodeId, now: SimTime) -> bool {
        let cu = self.grid.cell_of[u];
        self.live.iter().any(|t| {
            t.start + SENSE_DELAY <= now
                && (self.within_cs_cell(t.sender, u, cu)
                    || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu)))
        })
    }

    /// Fused carrier sense: [`Channel::busy_near`] and, when the medium
    /// is sensed busy, [`Channel::busy_until`] — in a single pass over
    /// the live set. `None` = medium free; `Some(until)` = sensed busy
    /// until `until` (which, matching `busy_until`, also counts
    /// conflicting transmissions still inside their vulnerable window).
    pub fn sense_busy_until(&self, u: NodeId, now: SimTime) -> Option<SimTime> {
        let cu = self.grid.cell_of[u];
        let mut sensed = false;
        let mut until: Option<SimTime> = None;
        for t in &self.live {
            if self.within_cs_cell(t.sender, u, cu)
                || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu))
            {
                sensed |= t.start + SENSE_DELAY <= now;
                until = Some(until.map_or(t.end, |e| e.max(t.end)));
            }
        }
        if sensed { until } else { None }
    }

    /// The latest end time among live transmissions conflicting with `u`'s
    /// carrier sense, if any — when the medium frees up from `u`'s view.
    pub fn busy_until(&self, u: NodeId) -> Option<SimTime> {
        let cu = self.grid.cell_of[u];
        self.live
            .iter()
            .filter(|t| {
                self.within_cs_cell(t.sender, u, cu)
                    || t.receiver.is_some_and(|r| self.within_cs_cell(r, u, cu))
            })
            .map(|t| t.end)
            .max()
    }

    /// `true` if a live transmission's *sender* covers node `r` — starting
    /// a reception at `r` now would collide. Unlike carrier sensing this
    /// has no detection delay: interference corrupts regardless of age.
    pub fn covered(&self, r: NodeId) -> bool {
        let cr = self.grid.cell_of[r];
        self.live.iter().any(|t| self.within_cs_cell(t.sender, r, cr))
    }

    /// Registers a transmission on the medium.
    pub fn begin_tx(&mut self, sender: NodeId, receiver: Option<NodeId>, start: SimTime, end: SimTime) {
        let t = Transmission { sender, receiver, start, end };
        self.live.push(t);
        self.log.push(t);
    }

    /// Removes a finished transmission from the live set and prunes the
    /// collision log.
    ///
    /// The prune floor is the earliest start among transmissions still
    /// live plus those removed by this very call: every future
    /// [`Channel::reception_corrupted`] query asks about the interval of
    /// a transmission that is live (or ending) at query time, so entries
    /// whose end precedes all such starts can never overlap a queried
    /// interval again. When nothing is live the floor falls back to a
    /// 100 ms window (the longest frame is ≪ that), so direct API users
    /// querying a just-ended interval still see its overlaps.
    ///
    /// The `retain` pass itself is batched — it only runs once the log
    /// has doubled since the last prune — making pruning amortised O(1)
    /// per transmission instead of O(log²) under congestion.
    pub fn end_tx(&mut self, sender: NodeId, now: SimTime) {
        let mut ended_floor: Option<SimTime> = None;
        self.live.retain(|t| {
            if t.sender == sender && t.end <= now {
                ended_floor = Some(ended_floor.map_or(t.start, |f| f.min(t.start)));
                false
            } else {
                true
            }
        });
        if self.log.len() < self.prune_at {
            return;
        }
        let live_floor = self.live.iter().map(|t| t.start).min();
        let floor = match (live_floor, ended_floor) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => SimTime::from_nanos(now.as_nanos().saturating_sub(100_000_000)),
        };
        self.log.retain(|t| t.end >= floor);
        self.prune_at = (self.log.len() * 2).max(PRUNE_MIN);
    }

    /// Collision check for a reception at `r` spanning `[start, end)`:
    /// `true` if any other logged transmission overlaps the interval with
    /// a sender (other than `from`) within carrier-sense range of `r`.
    pub fn reception_corrupted(&self, r: NodeId, from: NodeId, start: SimTime, end: SimTime) -> bool {
        let cr = self.grid.cell_of[r];
        self.log.iter().any(|t| {
            t.sender != from
                && t.sender != r
                && t.start < end
                && t.end > start
                && self.within_cs_cell(t.sender, r, cr)
        })
    }

    /// Collects the senders of every logged transmission (other than
    /// `from`'s) overlapping `[start, end)` into `out` — the one-time
    /// time-window scan a broadcast completion shares across all its
    /// receivers, so each per-receiver check reduces to
    /// [`Channel::any_interferer_covers`] over this (typically tiny) set.
    pub fn interferers_into(
        &self,
        from: NodeId,
        start: SimTime,
        end: SimTime,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        out.extend(
            self.log
                .iter()
                .filter(|t| t.sender != from && t.start < end && t.end > start)
                .map(|t| t.sender),
        );
    }

    /// `true` if any sender collected by [`Channel::interferers_into`] is
    /// within carrier-sense range of `r`. Together they answer exactly
    /// [`Channel::reception_corrupted`] for the same interval.
    pub fn any_interferer_covers(&self, interferers: &[NodeId], r: NodeId) -> bool {
        let cr = self.grid.cell_of[r];
        interferers.iter().any(|&s| self.within_cs_cell(s, r, cr))
    }

    /// `a` within carrier-sense range of `b`, with `b`'s cell given: the
    /// integer adjacency test culls far-away nodes before any f64 math.
    #[inline]
    fn within_cs_cell(&self, a: NodeId, b: NodeId, cell_b: Cell) -> bool {
        a != b
            && Grid::adjacent(self.grid.cell_of[a], cell_b)
            && dist_sq(self.positions[a], self.positions[b]) <= self.cs_range_sq
    }

    /// Transmissions currently retained in the collision log (pruning
    /// diagnostics; behaviour must never depend on this).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }
}

#[inline]
fn dist_sq(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    impl Channel {
        fn within_cs(&self, a: NodeId, b: NodeId) -> bool {
            self.within_cs_cell(a, b, self.grid.cell_of[b])
        }
    }

    /// Line: 0 --100m-- 1 --100m-- 2 --100m-- 3; range 120 m, cs 264 m.
    fn line() -> Channel {
        Channel::new(
            vec![(0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (300.0, 0.0)],
            120.0,
        )
    }

    #[test]
    fn neighbor_lists() {
        let c = line();
        assert_eq!(c.neighbors(0), &[1]);
        assert_eq!(c.neighbors(1), &[0, 2]);
        assert!(c.in_range(1, 2));
        assert!(!c.in_range(0, 2));
        assert!(!c.in_range(2, 2), "self is never a neighbor");
    }

    #[test]
    fn carrier_sense_extends_past_range() {
        let mut c = line();
        // 0 transmits to 1: node 2 (200 m from 0) is inside cs range
        // (264 m) even though outside decode range. Sense after the
        // detection delay has elapsed.
        c.begin_tx(0, Some(1), t(0), t(10));
        assert!(c.busy_near(2, t(1)));
        assert!(c.busy_near(1, t(1)));
        // Node 3 is 300 m from sender 0, but 200 m from receiver 1 → the
        // receiver's CTS reserves its neighborhood too.
        assert!(c.busy_near(3, t(1)));
        assert_eq!(c.busy_until(2), Some(t(10)));
    }

    #[test]
    fn vulnerable_window_hides_young_transmissions() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        // Within SENSE_DELAY of the start, the medium still reads free...
        assert!(!c.busy_near(2, SimTime::from_micros(5)));
        // ...and is detected once the slot has elapsed.
        assert!(c.busy_near(2, SimTime::from_micros(20)));
    }

    #[test]
    fn end_tx_clears_live() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        c.end_tx(0, t(10));
        assert!(!c.busy_near(2, t(11)));
        assert_eq!(c.busy_until(2), None);
    }

    #[test]
    fn covered_detects_active_senders() {
        let mut c = line();
        c.begin_tx(3, Some(2), t(0), t(10));
        // Node 1 is 200 m from sender 3 → covered.
        assert!(c.covered(1));
        // Node 0 is 300 m from sender 3 → clear.
        assert!(!c.covered(0));
    }

    #[test]
    fn hidden_terminal_corrupts_reception() {
        let mut c = line();
        // 0 → 1 reception in flight; 2 starts an overlapping transmission.
        // Sender 2 is 100 m from receiver 1 → corruption.
        c.begin_tx(0, Some(1), t(0), t(10));
        c.begin_tx(2, Some(3), t(5), t(15));
        assert!(c.reception_corrupted(1, 0, t(0), t(10)));
        // The reverse reception at 3 (from 2) is also corrupted by 0? No:
        // sender 0 is 300 m from 3, outside cs range.
        assert!(!c.reception_corrupted(3, 2, t(5), t(15)));
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        c.begin_tx(2, Some(3), t(10), t(20));
        assert!(!c.reception_corrupted(1, 0, t(0), t(10)), "back-to-back is clean");
    }

    #[test]
    fn own_transmission_does_not_corrupt_itself() {
        let mut c = line();
        c.begin_tx(0, Some(1), t(0), t(10));
        assert!(!c.reception_corrupted(1, 0, t(0), t(10)));
    }

    #[test]
    fn distance_is_symmetric() {
        let c = line();
        assert_eq!(c.distance(0, 3), c.distance(3, 0));
        assert_eq!(c.distance(0, 3), 300.0);
    }

    #[test]
    fn grid_tracks_incremental_moves() {
        // Spread nodes far apart so the grid has many cells, then walk
        // one node across the deployment; neighbour sets must follow.
        let mut positions = vec![(0.0, 0.0), (100.0, 0.0), (2000.0, 0.0), (4000.0, 3000.0)];
        let mut c = Channel::new(positions.clone(), 120.0);
        assert_eq!(c.neighbors(0), &[1]);
        assert_eq!(c.neighbors(2), &[] as &[NodeId]);
        // March node 0 over to node 2 in steps.
        for step in 0..=20 {
            positions[0] = (100.0 * step as f64, 0.0);
            c.set_positions(positions.clone());
        }
        assert_eq!(c.neighbors(0), &[2], "0 moved next to 2");
        assert_eq!(c.neighbors(2), &[0]);
        assert_eq!(c.neighbors(1), &[] as &[NodeId], "1 left behind");
        assert!(c.in_range(0, 2) && !c.in_range(0, 1));
        // The in-place update path agrees with set_positions.
        c.update_positions(|pos| pos[0] = (100.0, 0.0));
        assert_eq!(c.neighbors(0), &[1]);
    }

    #[test]
    fn neighbor_lists_stay_sorted_ascending() {
        let mut rng = eend_sim::SimRng::new(42);
        let positions: Vec<(f64, f64)> = (0..60)
            .map(|_| (rng.range_f64(0.0, 900.0), rng.range_f64(0.0, 900.0)))
            .collect();
        let c = Channel::new(positions, 250.0);
        for u in 0..60 {
            let nb = c.neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "node {u} list not ascending: {nb:?}");
            assert!(!nb.contains(&u), "self-neighbour at {u}");
        }
    }

    #[test]
    fn prune_is_batched_and_never_drops_reachable_entries() {
        // Interleave many short transmissions with one long-running
        // reception; the long interval must keep seeing every overlapping
        // hidden-terminal transmission no matter how often end_tx prunes.
        let mut c = line();
        let long_start = t(0);
        let long_end = t(10_000);
        c.begin_tx(0, Some(1), long_start, long_end);
        let mut max_log = 0;
        for i in 0..500u64 {
            let s = t(10 + i * 10);
            let e = t(15 + i * 10);
            c.begin_tx(2, Some(3), s, e);
            // Every overlapping tx from node 2 (100 m from receiver 1)
            // must stay visible to the long reception's collision check,
            // even right after its end_tx pruned the log.
            c.end_tx(2, e);
            assert!(
                c.reception_corrupted(1, 0, long_start, long_end),
                "iteration {i}: overlapping transmission lost to pruning"
            );
            max_log = max_log.max(c.log_len());
        }
        // The long reception pins the floor at its own start, so nothing
        // it can still see is dropped — while batching keeps prune passes
        // O(1) amortised. Once it ends, the backlog becomes prunable.
        c.end_tx(0, long_end);
        assert!(max_log >= 500, "the pinned log kept every reachable entry");
        for i in 0..40u64 {
            let s = t(10_100 + i * 10);
            c.begin_tx(2, Some(3), s, s + eend_sim::SimDuration::from_millis(5));
            c.end_tx(2, s + eend_sim::SimDuration::from_millis(5));
        }
        assert!(c.log_len() < 80, "log not reclaimed after horizon passed: {}", c.log_len());
    }

    #[test]
    fn prune_keeps_log_near_live_set_without_long_receptions() {
        // Back-to-back short transmissions: with the tight floor the log
        // must stay bounded by a small constant, not grow with history.
        let mut c = line();
        let mut max_log = 0;
        for i in 0..2_000u64 {
            let s = t(i * 10);
            let e = t(i * 10 + 5);
            c.begin_tx(0, Some(1), s, e);
            c.end_tx(0, e);
            max_log = max_log.max(c.log_len());
        }
        assert!(max_log <= 2 * PRUNE_MIN, "log grew to {max_log} with no live pins");
    }

    #[test]
    fn within_cs_uses_cell_prefilter_correctly() {
        // Nodes straddling cell boundaries: exact distance decides, the
        // cell test only culls. cs range = 264 m → cells 264 m wide.
        let c = Channel::new(
            vec![(0.0, 0.0), (263.0, 0.0), (265.0, 0.0), (600.0, 0.0)],
            120.0,
        );
        assert!(c.within_cs(0, 1), "263 m < 264 m cs range");
        assert!(!c.within_cs(0, 2), "265 m > 264 m cs range, adjacent cells");
        assert!(!c.within_cs(0, 3), "600 m: culled by cell adjacency");
        assert!(c.within_cs(2, 1), "2 m apart across a cell boundary");
    }

    /// The adjacency test as it was before cells kept their coordinates:
    /// both recovered from the flat index by division.
    fn adjacent_by_division(cols: usize, a: u32, b: u32) -> bool {
        let (ax, ay) = (a as usize % cols, a as usize / cols);
        let (bx, by) = (b as usize % cols, b as usize / cols);
        ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1
    }

    #[test]
    fn coordinate_adjacency_matches_division_form() {
        // A 5×4-cell grid with one node at every cell centre, so the
        // nodes' cells cover every cell pair, borders included.
        let cs = 120.0 * CS_RANGE_FACTOR;
        let (cols, rows) = (5, 4);
        let mut positions: Vec<(f64, f64)> = (0..rows)
            .flat_map(|y| (0..cols).map(move |x| ((x as f64 + 0.5) * cs, (y as f64 + 0.5) * cs)))
            .collect();
        // Corner nodes pin the bounding box to exactly cols × rows cells.
        positions.push((0.0, 0.0));
        positions.push(((cols as f64 - 0.5) * cs, (rows as f64 - 0.5) * cs));
        let mut grid = Grid::new(&positions, cs);
        assert_eq!((grid.cols, grid.rows), (cols, rows));
        let check = |grid: &Grid| {
            for &a in &grid.cell_of {
                assert_eq!((a.x as usize, a.y as usize), (a.flat as usize % cols, a.flat as usize / cols));
                for &b in &grid.cell_of {
                    assert_eq!(
                        Grid::adjacent(a, b),
                        adjacent_by_division(cols, a.flat, b.flat),
                        "cells {a:?} and {b:?}"
                    );
                }
            }
        };
        check(&grid);
        let distinct: std::collections::BTreeSet<u32> = grid.cell_of.iter().map(|c| c.flat).collect();
        assert_eq!(distinct.len(), cols * rows, "every cell is occupied");
        // Clamped positions: nodes moved off every side of the box, onto
        // its far corner, and to non-finite coordinates.
        let off = [
            (-1e6, -1e6),
            (1e6, -5.0),
            (-5.0, 1e6),
            (1e6, 1e6),
            (f64::NAN, 2.0 * cs),
            (2.0 * cs, f64::INFINITY),
        ];
        for (u, &p) in off.iter().enumerate() {
            positions[u * 3] = p;
        }
        grid.refresh(&positions);
        check(&grid);
        assert_eq!(grid.cell_of[0], Cell { x: 0, y: 0, flat: 0 }, "clamped to the origin cell");
        assert_eq!(grid.cell_of[9], Cell { x: 4, y: 3, flat: 19 }, "clamped to the far corner");
    }
}
