//! The exact block-cut path of [`CentralityFactors::compute`].
//!
//! A shortest path never leaves a biconnected block except through a cut
//! vertex, and every path between two sides of a cut vertex passes
//! through it. So the Brandes sweep runs inside each block, over the
//! block's members only, with every member weighted by its *side*: the
//! part of the graph it reaches without using the block's edges. Sums
//! taken in this order are exact only while they stay below 2^53, so the
//! result is certified first and the caller falls back to the fused f64
//! kernel when the certificate fails (DESIGN.md §5, "exact block-cut
//! path").

use super::{CentralityFactors, UNSEEN};
use crate::graph::CsrAdjacency;
use std::ops::{Add, AddAssign};

/// 2^53. A non-negative integer sum or product below it is exact in f64.
const EXACT: f64 = 9_007_199_254_740_992.0;

/// Whether a computed count is below 2^53 (a NaN is not).
fn certified(x: f64) -> bool {
    x < EXACT
}

/// What one node reaches over part of the graph: `paths` = Σ σ(node, x),
/// `nodes` = the number of such `x`, `dist` = Σ d(node, x).
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    paths: f64,
    nodes: u64,
    dist: u64,
}

impl Reach {
    /// A node reaching only itself: one empty path at distance 0.
    const SELF: Reach = Reach {
        paths: 1.0,
        nodes: 1,
        dist: 0,
    };
}

impl Add for Reach {
    type Output = Reach;

    fn add(self, o: Reach) -> Reach {
        Reach {
            paths: self.paths + o.paths,
            nodes: self.nodes + o.nodes,
            dist: self.dist + o.dist,
        }
    }
}

impl AddAssign for Reach {
    fn add_assign(&mut self, o: Reach) {
        *self = *self + o;
    }
}

/// Betweenness and closeness from block-local sweeps, or `None` when
/// some `Δ(v)` or the path total `T` reaches 2^53.
///
/// The certificate: every value here is non-negative, no weight is formed
/// by subtraction, and every value that feeds `T` or a `Δ(v)` does so
/// through additions and multiplications by factors ≥ 1, save for a `p`
/// of exactly 0, which zeroes a product (or makes NaN of an infinite one,
/// which fails the check). Rounding is monotone, so the first inexact
/// operation that feeds a result leaves a value ≥ 2^53, and so does every
/// result it feeds. If `T` and every `Δ(v)` are below 2^53, every
/// operation here was exact, and so was every operation of the two-pass
/// reference, whose intermediates are each bounded by `T` or by a `Δ(v)`:
/// the two agree bit for bit.
pub(super) fn exact(adj: &CsrAdjacency) -> Option<CentralityFactors> {
    let n = adj.node_count();
    let blocks = Blocks::split(adj);
    let count = blocks.len();
    let mut sweep = Sweep::new(&blocks);
    // `side[k]` is slot k's side: its node, plus what the node reaches
    // through each of its other blocks.
    let mut side = vec![Reach::default(); blocks.members.len()];

    // Bottom-up. A block finishes after every block hanging below it, so
    // a non-head member's side, which the blocks it heads make up, is
    // complete here. `below[b]` is what block b's head reaches through b;
    // `others[b]` sums what it reaches through its other child blocks,
    // those finished before b here and those after in the next loop.
    let mut down = vec![Reach::default(); n];
    let mut below = Vec::with_capacity(count);
    let mut others = Vec::with_capacity(count);
    for b in 0..count {
        let (base, members) = blocks.block(b);
        let side = &mut side[base..base + members.len()];
        for (j, &c) in members.iter().enumerate().skip(1) {
            side[j] = Reach::SELF + down[c as usize];
        }
        let via = sweep.forward(&blocks, b, side, 0);
        let head = members[0] as usize;
        others.push(down[head]);
        down[head] += via;
        below.push(via);
    }
    // The per-node buffer is reused: `down`, then `after`, then `up`.
    let mut after = down;
    after.fill(Reach::default());
    for b in (0..count).rev() {
        let head = blocks.block(b).1[0] as usize;
        others[b] += after[head];
        after[head] += below[b];
    }

    // Top-down. A head's side also holds what it reaches through its own
    // parent block, `up`, which that block's sweeps measured just before.
    let mut up = after;
    up.fill(Reach::default());
    let mut delta = vec![0.0f64; n];
    let mut tau = vec![0.0f64; n];
    let mut reach = vec![0u64; n];
    let mut dist_sum = vec![0u64; n];
    let mut out_paths = vec![0.0f64; blocks.members.len()];
    let mut total = 0.0f64;
    for b in (0..count).rev() {
        let (base, members) = blocks.block(b);
        let side = &mut side[base..base + members.len()];
        side[0] = Reach::SELF + up[members[0] as usize] + others[b];
        sweep.through[..members.len()].fill(0.0);
        for (a, &v) in members.iter().enumerate() {
            let out = sweep.forward(&blocks, b, side, a);
            sweep.backward(side, side[a].paths);
            let v = v as usize;
            out_paths[base + a] = out.paths;
            total += out.paths;
            tau[v] += out.paths;
            reach[v] += out.nodes;
            dist_sum[v] += out.dist;
            if a > 0 {
                up[v] = out;
            }
        }
        for (&v, &t) in members.iter().zip(&sweep.through) {
            delta[v as usize] += t;
        }
    }
    if !certified(total) {
        return None;
    }

    // A node also lies inside every path that enters it through one of its
    // blocks and leaves through another. Slot k's out-sum `P` counts the
    // paths from its node through its block and `tau` sums them over the
    // node's blocks, so `P·(tau - P)` such paths arrive through slot k's
    // block. `T` is exact, so `tau - P` is.
    for (&v, &p) in blocks.members.iter().zip(&out_paths) {
        delta[v as usize] += p * (tau[v as usize] - p);
    }
    if !delta.iter().all(|&d| certified(d)) {
        return None;
    }

    if total > 0.0 {
        for d in &mut delta {
            *d /= total;
        }
    }
    let closeness = reach
        .iter()
        .zip(&dist_sum)
        .map(|(&r, &d)| {
            if d > 0 {
                let r = r as f64;
                (r / (n as f64 - 1.0)) * (r / d as f64)
            } else {
                0.0
            }
        })
        .collect();
    Some(CentralityFactors {
        betweenness: delta,
        closeness,
    })
}

/// The undirected view split into biconnected blocks, self-loops dropped
/// and isolated nodes in none. Blocks come in the order an iterative
/// Hopcroft–Tarjan search finishes them, each after every block hanging
/// below it. A block's head is its member nearest the search root; every
/// other member belongs to exactly one block as a non-head.
struct Blocks {
    /// Block `b` occupies slots `start[b]..start[b + 1]`.
    start: Vec<usize>,
    /// The node in each slot; a block's head comes first.
    members: Vec<u32>,
    /// The neighbours of slot `k` within its block, as offsets from the
    /// block's first slot: `nbrs[nbr_start[k]..nbr_start[k + 1]]`.
    nbr_start: Vec<usize>,
    nbrs: Vec<u32>,
}

impl Blocks {
    fn split(adj: &CsrAdjacency) -> Blocks {
        let n = adj.node_count();
        let mut disc = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        // Discovered non-root nodes whose block has not finished.
        let mut open: Vec<u32> = Vec::new();
        // The search path: each node with the position of its next neighbour.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut time = 0u32;
        let mut start = vec![0];
        let mut members = Vec::new();
        for root in 0..n {
            if disc[root] != UNSEEN {
                continue;
            }
            disc[root] = time;
            low[root] = time;
            time += 1;
            path.push((root as u32, 0));
            while let Some((v, next)) = path.last_mut() {
                let v = *v as usize;
                if let Some(&w) = adj.neighbors(v).get(*next) {
                    *next += 1;
                    let w = w as usize;
                    if disc[w] == UNSEEN {
                        disc[w] = time;
                        low[w] = time;
                        time += 1;
                        open.push(w as u32);
                        path.push((w as u32, 0));
                    } else {
                        low[v] = low[v].min(disc[w]);
                    }
                    continue;
                }
                path.pop();
                let Some(&(u, _)) = path.last() else { break };
                let u = u as usize;
                low[u] = low[u].min(low[v]);
                if low[v] >= disc[u] {
                    // Nothing below v reaches above u: u heads the block
                    // of v and whatever is still open above v's entry.
                    members.push(u as u32);
                    loop {
                        let x = open.pop().expect("v is still open");
                        members.push(x);
                        if x as usize == v {
                            break;
                        }
                    }
                    start.push(members.len());
                }
            }
        }

        // Every edge belongs to the block of its later-discovered end, in
        // which that end is a non-head member; so scanning each non-head
        // member's earlier neighbours lists each edge of the block once.
        let mut local = vec![0u32; n];
        let mut nbr_start = vec![0usize; members.len() + 1];
        let mut nbrs = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut cursor: Vec<usize> = Vec::new();
        for b in 0..start.len() - 1 {
            let (base, end) = (start[b], start[b + 1]);
            for (j, &v) in members[base..end].iter().enumerate() {
                local[v as usize] = j as u32;
            }
            edges.clear();
            for (j, &c) in members[base..end].iter().enumerate().skip(1) {
                let c = c as usize;
                for &x in adj.neighbors(c) {
                    if disc[x as usize] < disc[c] {
                        edges.push((j as u32, local[x as usize]));
                    }
                }
            }
            for &(x, y) in &edges {
                nbr_start[base + x as usize + 1] += 1;
                nbr_start[base + y as usize + 1] += 1;
            }
            for k in base..end {
                nbr_start[k + 1] += nbr_start[k];
            }
            nbrs.resize(nbr_start[end], 0);
            cursor.clear();
            cursor.extend_from_slice(&nbr_start[base..end]);
            for &(x, y) in &edges {
                nbrs[cursor[x as usize]] = y;
                cursor[x as usize] += 1;
                nbrs[cursor[y as usize]] = x;
                cursor[y as usize] += 1;
            }
        }
        Blocks {
            start,
            members,
            nbr_start,
            nbrs,
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Block `b`'s first slot and its members.
    fn block(&self, b: usize) -> (usize, &[u32]) {
        let (base, end) = (self.start[b], self.start[b + 1]);
        (base, &self.members[base..end])
    }

    /// The neighbours of slot `k`, as offsets into its block.
    fn neighbors(&self, k: usize) -> &[u32] {
        &self.nbrs[self.nbr_start[k]..self.nbr_start[k + 1]]
    }
}

/// Scratch for one source's sweep over one block, sized for the largest
/// block and indexed by offsets into the block.
struct Sweep {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    p: Vec<f64>,
    /// BFS queue, then visit order; a block is connected, so the sweep
    /// reaches every member.
    order: Vec<u32>,
    /// The shortest-path-DAG children of `order[i]` are
    /// `kids[kid_end[i - 1]..kid_end[i]]`.
    kid_end: Vec<usize>,
    kids: Vec<u32>,
    /// The block's `Δ` contributions, summed over its sources.
    through: Vec<f64>,
}

impl Sweep {
    fn new(blocks: &Blocks) -> Sweep {
        let (mut members, mut entries) = (0, 0);
        for b in 0..blocks.len() {
            let (base, end) = (blocks.start[b], blocks.start[b + 1]);
            members = members.max(end - base);
            entries = entries.max(blocks.nbr_start[end] - blocks.nbr_start[base]);
        }
        Sweep {
            dist: vec![UNSEEN; members],
            sigma: vec![0.0; members],
            p: vec![0.0; members],
            order: vec![0; members],
            kid_end: vec![0; members],
            kids: vec![0; entries],
            through: vec![0.0; members],
        }
    }

    /// BFS from member `a` of block `b`: counts shortest paths `σ`,
    /// records the DAG children, and returns what `a` reaches through
    /// the block, each other member standing for its side (`side` is
    /// indexed like the block's members).
    fn forward(&mut self, blocks: &Blocks, b: usize, side: &[Reach], a: usize) -> Reach {
        let (base, end) = (blocks.start[b], blocks.start[b + 1]);
        let dist = &mut self.dist[..end - base];
        dist.fill(UNSEEN);
        dist[a] = 0;
        self.sigma[a] = 1.0;
        self.order[0] = a as u32;
        let mut out = Reach::default();
        let (mut reached, mut head, mut nkids) = (1, 0, 0);
        while head < reached {
            let v = self.order[head] as usize;
            let sv = self.sigma[v];
            if head > 0 {
                let s = side[v];
                out.paths += sv * s.paths;
                out.nodes += s.nodes;
                out.dist += s.nodes * u64::from(dist[v]) + s.dist;
            }
            let next = dist[v] + 1;
            for &w in blocks.neighbors(base + v) {
                let wi = w as usize;
                if dist[wi] == UNSEEN {
                    dist[wi] = next;
                    self.sigma[wi] = 0.0;
                    self.order[reached] = w;
                    reached += 1;
                }
                if dist[wi] == next {
                    self.sigma[wi] += sv;
                    self.kids[nkids] = w;
                    nkids += 1;
                }
            }
            self.kid_end[head] = nkids;
            head += 1;
        }
        out
    }

    /// The dependency sweep of the last [`forward`](Self::forward): `p[v]`
    /// counts the DAG paths from `v` down to any member, each weighted by
    /// the path weight of its end's side, and `from·σ[v]·p[v]` shortest
    /// paths that start on the source's side (path weight `from`) pass
    /// through `v`.
    fn backward(&mut self, side: &[Reach], from: f64) {
        for i in (1..side.len()).rev() {
            let v = self.order[i] as usize;
            let mut pv = 0.0f64;
            for &w in &self.kids[self.kid_end[i - 1]..self.kid_end[i]] {
                let w = w as usize;
                pv += side[w].paths + self.p[w];
            }
            self.p[v] = pv;
            self.through[v] += from * self.sigma[v] * pv;
        }
    }
}
