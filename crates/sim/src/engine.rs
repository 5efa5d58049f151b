//! The discrete-event simulated execution of PI2M on a cc-NUMA machine.
//!
//! Virtual threads run the *actual* algorithm — real mesh, real rules, real
//! speculative conflicts — under a virtual clock. Each operation is split
//! into the kernel's `prepare` (locks acquired, nothing mutated) and
//! `commit` (applied at the operation's virtual completion time), so an
//! in-flight operation genuinely excludes overlapping operations. Lock
//! acquisition is charged incrementally: when a starting operation hits a
//! vertex an in-flight one holds, virtual acquisition times decide who rolls
//! back — either side can lose, which is what lets the Aggressive and
//! Random contention managers livelock in the simulator exactly as the
//! paper observed on hardware (Table 1).
//!
//! See DESIGN.md "Substitutions" for why this reproduces the paper's
//! measured quantities (rollbacks, overhead decomposition, speedups,
//! inter-blade traffic) without the retired 256-core Blacklight.

use crate::machine::SimMachine;
use pi2m_delaunay::{CellId, OpCtx, OpError, SharedMesh, VertexId, VertexKind};
use pi2m_image::LabeledImage;
use pi2m_oracle::{IsosurfaceOracle, SizeFn};
use pi2m_refine::{
    BalancerKind, CmKind, FinalMesh, OverheadKind, PointGrid, RuleConfig, Rules, ThreadStats,
    DONATE_THRESHOLD, R_PLUS, S_PLUS,
};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Configuration of a simulated PI2M run.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of virtual threads (≤ machine capacity).
    pub vthreads: usize,
    pub machine: SimMachine,
    pub delta: f64,
    pub radius_edge_bound: f64,
    pub planar_angle_min_deg: f64,
    pub size_fn: Option<Arc<dyn SizeFn>>,
    pub cm: CmKind,
    pub balancer: BalancerKind,
    pub enable_removals: bool,
    /// Virtual seconds without a committed operation before declaring a
    /// livelock (paper §5.5 observed real livelocks for Aggressive/Random).
    pub livelock_vtime: f64,
    /// Real-safety cap on processed events (0 = a generous default).
    pub max_events: u64,
    /// Real (wall-clock) seconds budget; exceeded ⇒ `aborted` (0 = none).
    /// Guards against quasi-livelocked configurations that crawl in virtual
    /// time while burning real time.
    pub max_real_seconds: f64,
    /// Record overhead traces (Figure 6).
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vthreads: 16,
            machine: SimMachine::blacklight(),
            delta: 2.0,
            radius_edge_bound: 2.0,
            planar_angle_min_deg: 30.0,
            size_fn: None,
            cm: CmKind::Local,
            balancer: BalancerKind::Hws,
            enable_removals: true,
            livelock_vtime: 0.5,
            max_events: 0,
            max_real_seconds: 0.0,
            trace: false,
        }
    }
}

/// Statistics of a simulated run. Overheads are virtual seconds.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Virtual makespan of the refinement (excludes EDT).
    pub vtime: f64,
    /// Modeled virtual time of the parallel EDT preprocessing.
    pub edt_vtime: f64,
    pub per_thread: Vec<ThreadStats>,
    pub livelock: bool,
    pub final_elements: usize,
    pub vertices_allocated: usize,
    /// Cavity cells touched that were homed on the same socket.
    pub local_touches: u64,
    /// Touched cells homed on the other socket of the same blade.
    pub remote_socket_touches: u64,
    /// Touched cells homed on a different blade (Figure 5b's inter-blade
    /// accesses).
    pub inter_blade_touches: u64,
    /// Real events processed (diagnostics).
    pub events: u64,
    /// Wake sources: [streak, before_beg, driver_fallback, termination]
    /// (diagnostics).
    pub wake_sources: [u64; 4],
    /// The run exhausted its event budget before terminating (reported as
    /// non-termination, like the paper's hour-long livelock runs).
    pub aborted: bool,
    /// Modeled energy of the run with cores busy-waiting at full idle power
    /// (joules).
    pub energy_joules: f64,
    /// Modeled energy if idling cores were dropped into a deep low-power
    /// state (the paper §8's Elements/(second·Watt) opportunity).
    pub energy_joules_throttled: f64,
}

impl SimStats {
    pub fn total_rollbacks(&self) -> u64 {
        self.per_thread.iter().map(|t| t.rollbacks).sum()
    }
    pub fn total_operations(&self) -> u64 {
        self.per_thread.iter().map(|t| t.operations).sum()
    }
    pub fn total_removals(&self) -> u64 {
        self.per_thread.iter().map(|t| t.removals).sum()
    }
    pub fn contention_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.contention_overhead).sum()
    }
    pub fn load_balance_overhead(&self) -> f64 {
        self.per_thread
            .iter()
            .map(|t| t.load_balance_overhead)
            .sum()
    }
    pub fn rollback_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.rollback_overhead).sum()
    }
    pub fn total_overhead(&self) -> f64 {
        self.per_thread.iter().map(|t| t.total_overhead()).sum()
    }
    pub fn total_donations(&self) -> u64 {
        self.per_thread.iter().map(|t| t.donations_made).sum()
    }
    pub fn inter_blade_donations(&self) -> u64 {
        self.per_thread
            .iter()
            .map(|t| t.inter_blade_donations)
            .sum()
    }
    /// Elements per virtual second.
    pub fn elements_per_second(&self) -> f64 {
        if self.vtime > 0.0 {
            self.final_elements as f64 / self.vtime
        } else {
            0.0
        }
    }
    /// Overhead seconds per thread (Table 4 row).
    pub fn overhead_per_thread(&self) -> f64 {
        if self.per_thread.is_empty() {
            0.0
        } else {
            self.total_overhead() / self.per_thread.len() as f64
        }
    }
    /// Elements per joule (paper §8's energy-efficiency figure of merit).
    pub fn elements_per_joule(&self) -> f64 {
        if self.energy_joules > 0.0 {
            self.final_elements as f64 / self.energy_joules
        } else {
            0.0
        }
    }

    /// Merged overhead trace (Figure 6), `tid`-stamped and deterministically
    /// ordered (time, then thread id) like [`pi2m_refine::RefineStats`].
    pub fn merged_trace(&self) -> Vec<pi2m_refine::TraceEvent> {
        let mut all: Vec<pi2m_refine::TraceEvent> = self
            .per_thread
            .iter()
            .enumerate()
            .flat_map(|(tid, t)| {
                t.trace.iter().map(move |e| pi2m_refine::TraceEvent {
                    tid: tid as u32,
                    ..*e
                })
            })
            .collect();
        all.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.tid.cmp(&b.tid)));
        all
    }
}

/// Result of a simulated run.
pub struct SimOutput {
    pub mesh: FinalMesh,
    pub stats: SimStats,
}

/// Run the simulated mesher.
pub struct SimMesher {
    img: LabeledImage,
    cfg: SimConfig,
}

// ---------------------------------------------------------------------------

enum Prep {
    Insert(pi2m_delaunay::PreparedInsert, pi2m_refine::InsertAction),
    Remove(pi2m_delaunay::PreparedRemove, VertexId),
}

struct InFlight {
    prep: Prep,
    lock_order: Vec<VertexId>,
    t_start: f64,
    complete_at: f64,
    /// PEL element that triggered this op (re-enqueued on preemption).
    element: Option<(u32, u32)>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum VtState {
    Ready(f64),
    InFlight,
    Begging(f64),
    CmBlocked(f64),
}

enum Work {
    Element(u32, u32),
    Removal(VertexId),
}

struct SimCm {
    kind: CmKind,
    consecutive: Vec<u32>,
    streak: Vec<u32>,
    cl_global: VecDeque<usize>,
    cl_local: Vec<VecDeque<usize>>,
    busy: Vec<bool>,
    rng: u64,
}

impl SimCm {
    fn new(kind: CmKind, n: usize) -> Self {
        SimCm {
            kind,
            consecutive: vec![0; n],
            streak: vec![0; n],
            cl_global: VecDeque::new(),
            cl_local: (0..n).map(|_| VecDeque::new()).collect(),
            busy: vec![false; n],
            rng: 0x2545F4914F6CDD1D,
        }
    }

    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Returns the next-ready time, or None = block (CmBlocked). `sleep_out`
    /// receives any backoff charged as contention overhead.
    fn on_rollback(
        &mut self,
        vt: usize,
        owner: usize,
        t: f64,
        active: usize,
        sleep_out: &mut f64,
    ) -> Option<f64> {
        match self.kind {
            CmKind::Aggressive => Some(t),
            CmKind::Random => {
                self.consecutive[vt] += 1;
                if self.consecutive[vt] > R_PLUS {
                    let ms = 1 + self.rand() % R_PLUS as u64;
                    let dur = ms as f64 * 1e-3;
                    *sleep_out = dur;
                    Some(t + dur)
                } else {
                    Some(t)
                }
            }
            CmKind::Global => {
                self.streak[vt] = 0;
                if active <= 1 {
                    return Some(t);
                }
                self.cl_global.push_back(vt);
                None
            }
            CmKind::Local => {
                self.streak[vt] = 0;
                if active <= 1 || owner == vt {
                    return Some(t);
                }
                if self.busy[owner] {
                    // conflicting thread already blocked: do not block
                    // (cycle-breaking, paper Fig. 2c)
                    return Some(t);
                }
                self.busy[vt] = true;
                self.cl_local[owner].push_back(vt);
                None
            }
        }
    }

    fn on_success(&mut self, vt: usize) -> Option<usize> {
        match self.kind {
            CmKind::Aggressive => None,
            CmKind::Random => {
                self.consecutive[vt] = 0;
                None
            }
            CmKind::Global => {
                // streak not reset on wake (paper Fig. 2b)
                self.streak[vt] += 1;
                if self.streak[vt] >= S_PLUS {
                    self.cl_global.pop_front()
                } else {
                    None
                }
            }
            CmKind::Local => {
                self.streak[vt] += 1;
                if self.streak[vt] >= S_PLUS {
                    let w = self.cl_local[vt].pop_front();
                    if let Some(w) = w {
                        self.busy[w] = false;
                    }
                    w
                } else {
                    None
                }
            }
        }
    }

    /// Wake one blocked thread unconditionally (drain-time liveness).
    fn release_one(&mut self) -> Option<usize> {
        if let Some(w) = self.cl_global.pop_front() {
            return Some(w);
        }
        for cl in &mut self.cl_local {
            if let Some(w) = cl.pop_front() {
                self.busy[w] = false;
                return Some(w);
            }
        }
        None
    }

    /// Wake anybody parked on `vt`'s list when `vt` goes begging.
    fn before_beg(&mut self, vt: usize, woken: &mut Vec<usize>) {
        if self.kind == CmKind::Local {
            while let Some(w) = self.cl_local[vt].pop_front() {
                self.busy[w] = false;
                woken.push(w);
            }
        } else if self.kind == CmKind::Global {
            if let Some(w) = self.cl_global.pop_front() {
                woken.push(w);
            }
        }
    }
}

struct SimBalancer {
    kind: BalancerKind,
    topo: pi2m_refine::MachineTopology,
    bl1: Vec<VecDeque<usize>>,
    bl2: Vec<VecDeque<usize>>,
    bl3: VecDeque<usize>,
}

impl SimBalancer {
    fn new(kind: BalancerKind, topo: pi2m_refine::MachineTopology, n: usize) -> Self {
        let sockets = n.div_ceil(topo.threads_per_socket()).max(1);
        let blades = n.div_ceil(topo.threads_per_blade()).max(1);
        SimBalancer {
            kind,
            topo,
            bl1: (0..sockets).map(|_| VecDeque::new()).collect(),
            bl2: (0..blades).map(|_| VecDeque::new()).collect(),
            bl3: VecDeque::new(),
        }
    }

    fn register(&mut self, vt: usize) {
        match self.kind {
            BalancerKind::Rws => self.bl3.push_back(vt),
            BalancerKind::Hws => {
                let socket = self.topo.socket_of(vt);
                let blade = self.topo.blade_of(vt);
                if self.bl1[socket].len() < self.topo.threads_per_socket().saturating_sub(1) {
                    self.bl1[socket].push_back(vt);
                } else if self.bl2[blade].len() < self.topo.sockets_per_blade.saturating_sub(1) {
                    self.bl2[blade].push_back(vt);
                } else {
                    self.bl3.push_back(vt);
                }
            }
        }
    }

    fn pick(&mut self, donor: usize) -> Option<usize> {
        match self.kind {
            BalancerKind::Rws => self.bl3.pop_front(),
            BalancerKind::Hws => {
                let socket = self.topo.socket_of(donor);
                let blade = self.topo.blade_of(donor);
                if let Some(t) = self.bl1[socket].pop_front() {
                    return Some(t);
                }
                if let Some(t) = self.bl2[blade].pop_front() {
                    return Some(t);
                }
                if let Some(t) = self.bl3.pop_front() {
                    return Some(t);
                }
                for l in self.bl1.iter_mut().chain(self.bl2.iter_mut()) {
                    if let Some(t) = l.pop_front() {
                        return Some(t);
                    }
                }
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------

impl SimMesher {
    pub fn new(img: LabeledImage, cfg: SimConfig) -> Self {
        assert!(cfg.vthreads >= 1);
        assert!(
            cfg.vthreads <= cfg.machine.topo.capacity(),
            "more virtual threads than the machine has hardware threads"
        );
        SimMesher { img, cfg }
    }

    pub fn run(self) -> SimOutput {
        let cfg = self.cfg;
        let n = cfg.vthreads;
        let machine = &cfg.machine;
        let blades_in_use = n.div_ceil(machine.topo.threads_per_blade()).max(1);

        // Modeled EDT virtual time: linear in voxels, scales linearly with
        // threads (the paper's parallel Maurer filter).
        let voxels = self.img.num_voxels() as f64;
        let edt_vtime = voxels * 40e-9 / n as f64;

        let oracle = Arc::new(IsosurfaceOracle::new(self.img, 1));
        let domain = oracle
            .image()
            .foreground_bounds()
            .unwrap_or_else(|| oracle.image().bounds());
        let mesh = SharedMesh::enclosing(&domain);
        let grid = Arc::new(PointGrid::new(cfg.delta));
        let rules = Rules::new(
            RuleConfig {
                delta: cfg.delta,
                radius_edge_bound: cfg.radius_edge_bound,
                planar_angle_min_deg: cfg.planar_angle_min_deg,
                size_fn: cfg.size_fn.clone(),
                surface_size_fn: None,
            },
            Arc::clone(&oracle),
            grid,
        );

        let mut ctxs: Vec<OpCtx> = (0..n).map(|t| mesh.make_ctx(t as u32)).collect();
        let mut pels: Vec<VecDeque<(u32, u32)>> = vec![VecDeque::new(); n];
        let mut pending_removals: Vec<VecDeque<VertexId>> = vec![VecDeque::new(); n];
        let mut states: Vec<VtState> = vec![VtState::Ready(0.0); n];
        let mut inflight: Vec<Option<InFlight>> = (0..n).map(|_| None).collect();
        let mut stats: Vec<ThreadStats> = vec![ThreadStats::default(); n];
        let mut cm = SimCm::new(cfg.cm, n);
        let mut bal = SimBalancer::new(cfg.balancer, machine.topo, n);
        let mut sim = SimStats::default();

        // seed thread 0's PEL
        for c in mesh.alive_cells() {
            pels[0].push_back((c.0, mesh.cell(c).gen()));
        }

        let max_events = if cfg.max_events > 0 {
            cfg.max_events
        } else {
            2_000_000_000
        };
        let mut last_commit_t = 0.0f64;
        let mut t_now = 0.0f64;
        let mut livelock = false;
        let mut hit_real_cap = false;
        let wall_start = std::time::Instant::now();

        let cost = &machine.cost;
        let trace = cfg.trace;

        // ---------------- event loop ----------------
        'driver: while sim.events < max_events {
            if cfg.max_real_seconds > 0.0
                && sim.events % 65_536 == 0
                && wall_start.elapsed().as_secs_f64() > cfg.max_real_seconds
            {
                hit_real_cap = true;
                break 'driver;
            }
            // pick the earliest runnable event
            let mut best: Option<(f64, usize, bool)> = None;
            for vt in 0..n {
                let cand = match states[vt] {
                    VtState::Ready(at) => Some((at, vt, false)),
                    VtState::InFlight => {
                        let c = inflight[vt].as_ref().unwrap().complete_at;
                        Some((c, vt, true))
                    }
                    _ => None,
                };
                if let Some(c) = cand {
                    if best.is_none() || c.0 < best.unwrap().0 {
                        best = Some(c);
                    }
                }
            }

            let Some((t, vt, completion)) = best else {
                // nobody runnable: wake a CM-blocked thread or terminate
                let blocked: Vec<usize> = (0..n)
                    .filter(|&v| matches!(states[v], VtState::CmBlocked(_)))
                    .collect();
                if !blocked.is_empty() {
                    // deadlock-breaking wake (mirrors the real engine)
                    sim.wake_sources[2] += 1;
                    let w = cm.release_one().unwrap_or(blocked[0]);
                    if let VtState::CmBlocked(since) = states[w] {
                        stats[w].add_overhead(
                            OverheadKind::Contention,
                            t_now - since,
                            trace.then_some(t_now),
                        );
                    }
                    if cm.kind == CmKind::Local {
                        cm.busy[w] = false;
                    }
                    states[w] = VtState::Ready(t_now);
                    continue 'driver;
                }
                // all begging: account final waits and terminate
                for v in 0..n {
                    if let VtState::Begging(since) = states[v] {
                        stats[v].add_overhead(
                            OverheadKind::LoadBalance,
                            t_now - since,
                            trace.then_some(t_now),
                        );
                    }
                }
                break 'driver;
            };

            sim.events += 1;
            t_now = t_now.max(t);

            // virtual-time livelock watchdog
            if t - last_commit_t > cfg.livelock_vtime {
                livelock = true;
                break 'driver;
            }

            if completion {
                // ---- commit ----
                let fl = inflight[vt].take().unwrap();
                states[vt] = VtState::Ready(t);
                let ctx = &mut ctxs[vt];
                type CommitEffect = (Vec<CellId>, bool, Option<(VertexId, [f64; 3], VertexKind)>);
                let (created, removal, vertex_info): CommitEffect = match fl.prep {
                    Prep::Insert(p, action) => {
                        let res = ctx.commit_insert(p);
                        ctx.release_locks();
                        (
                            res.created,
                            false,
                            Some((res.vertex, action.point, action.kind)),
                        )
                    }
                    Prep::Remove(p, _victim) => {
                        let res = ctx.commit_remove(p);
                        ctx.release_locks();
                        (res.created, true, None)
                    }
                };
                last_commit_t = t;
                stats[vt].operations += 1;
                if removal {
                    stats[vt].removals += 1;
                } else {
                    stats[vt].insertions += 1;
                }
                stats[vt].cells_created += created.len() as u64;

                // home the new cells on this thread
                for &c in &created {
                    mesh.cell(c).tag.store(vt as u64 + 1, Ordering::Relaxed);
                }
                if let Some((v, point, kind)) = vertex_info {
                    rules.grid.insert(v, point);
                    if kind == VertexKind::Isosurface && cfg.enable_removals {
                        for victim in rules.r6_victims(&mesh, point) {
                            pending_removals[vt].push_back(victim);
                        }
                    }
                }
                // enqueue / donate
                if !created.is_empty() {
                    let target = if pels[vt].len() as i64 >= DONATE_THRESHOLD {
                        bal.pick(vt)
                    } else {
                        None
                    };
                    match target {
                        Some(b) if b != vt => {
                            for &nc in &created {
                                pels[b].push_back((nc.0, mesh.cell(nc).gen()));
                            }
                            stats[vt].donations_made += 1;
                            stats[b].donations_received += 1;
                            let cross_blade = machine.topo.blade_of(vt) != machine.topo.blade_of(b);
                            if cross_blade {
                                stats[vt].inter_blade_donations += 1;
                            }
                            let t_wake = t + machine.wake_penalty(vt, b, blades_in_use);
                            if let VtState::Begging(since) = states[b] {
                                stats[b].add_overhead(
                                    OverheadKind::LoadBalance,
                                    t_wake - since,
                                    trace.then_some(t_wake),
                                );
                            }
                            states[b] = VtState::Ready(t_wake);
                        }
                        _ => {
                            for &nc in &created {
                                pels[vt].push_back((nc.0, mesh.cell(nc).gen()));
                            }
                        }
                    }
                }
                // CM success
                if let Some(w) = cm.on_success(vt) {
                    sim.wake_sources[0] += 1;
                    if let VtState::CmBlocked(since) = states[w] {
                        stats[w].add_overhead(
                            OverheadKind::Contention,
                            t - since,
                            trace.then_some(t),
                        );
                        states[w] = VtState::Ready(t);
                    }
                }
                continue 'driver;
            }

            // ---- step: pick work ----
            let cf = machine.compute_factor(vt, n);
            let work = if let Some(victim) = pending_removals[vt].pop_front() {
                Some(Work::Removal(victim))
            } else {
                pels[vt].pop_front().map(|(c, g)| Work::Element(c, g))
            };
            let Some(work) = work else {
                // beg for work
                let mut woken = Vec::new();
                cm.before_beg(vt, &mut woken);
                for w in woken {
                    sim.wake_sources[1] += 1;
                    if let VtState::CmBlocked(since) = states[w] {
                        stats[w].add_overhead(
                            OverheadKind::Contention,
                            t - since,
                            trace.then_some(t),
                        );
                        states[w] = VtState::Ready(t);
                    }
                }
                states[vt] = VtState::Begging(t);
                bal.register(vt);
                continue 'driver;
            };

            // classify / resolve the action
            let (action_point, action_kind, element, is_removal, victim) = match work {
                Work::Element(cid, gen) => {
                    let t_cls = t + cost.classify * cf;
                    match rules.classify(&mesh, CellId(cid), gen) {
                        None => {
                            states[vt] = VtState::Ready(t_cls);
                            continue 'driver;
                        }
                        Some(a) => (a.point, a.kind, Some((cid, gen)), false, VertexId(0)),
                    }
                }
                Work::Removal(victim) => ([0.0; 3], VertexKind::Circumcenter, None, true, victim),
            };
            let t_op = if is_removal {
                t
            } else {
                t + cost.classify * cf
            };

            // ---- attempt prepare with incremental-acquisition preemption ----
            let mut t_try = t_op;
            let mut retries = 0usize;
            loop {
                retries += 1;
                let prep_result: Result<Prep, OpError> = if is_removal {
                    ctxs[vt]
                        .prepare_remove(victim)
                        .map(|p| Prep::Remove(p, victim))
                } else {
                    ctxs[vt].prepare_insert(action_point, action_kind).map(|p| {
                        Prep::Insert(
                            p,
                            pi2m_refine::InsertAction {
                                point: action_point,
                                kind: action_kind,
                                rule: 0,
                            },
                        )
                    })
                };
                match prep_result {
                    Ok(prep) => {
                        let lock_order = ctxs[vt].locked_vertices().to_vec();
                        // cost: locks + base + per-cell + NUMA touches
                        let (ncells, base) = match &prep {
                            Prep::Insert(p, _) => (p.cavity_size(), cost.insert_base),
                            Prep::Remove(p, _) => {
                                (p.ball_size(), cost.insert_base * cost.remove_factor)
                            }
                        };
                        let touched: Vec<CellId> = match &prep {
                            Prep::Insert(p, _) => p.cavity().to_vec(),
                            Prep::Remove(p, _) => p.ball().to_vec(),
                        };
                        let mut mem = 0.0;
                        for &c in &touched {
                            let home = mesh.cell(c).tag.load(Ordering::Relaxed) as usize;
                            let home_vt = home.saturating_sub(1).min(n - 1);
                            let pen = machine.touch_penalty(vt, home_vt, blades_in_use);
                            if pen == 0.0 {
                                sim.local_touches += 1;
                            } else if machine.topo.blade_of(vt) == machine.topo.blade_of(home_vt) {
                                sim.remote_socket_touches += 1;
                            } else {
                                sim.inter_blade_touches += 1;
                            }
                            mem += pen;
                        }
                        let dur = (lock_order.len() as f64 * cost.lock_step
                            + base
                            + ncells as f64 * cost.per_cavity_cell)
                            * cf
                            + mem;
                        inflight[vt] = Some(InFlight {
                            prep,
                            lock_order,
                            t_start: t_try,
                            complete_at: t_try + dur,
                            element,
                        });
                        states[vt] = VtState::InFlight;
                        break;
                    }
                    Err(OpError::Conflict {
                        owner,
                        vertex,
                        held,
                    }) => {
                        let owner = owner as usize;
                        let a = cost.lock_step;
                        let t_me = t_try + (held as f64 + 1.0) * a * cf;
                        let owner_fl = inflight[owner].as_ref();
                        let t_owner_acq = owner_fl
                            .map(|fl| {
                                let pos = fl
                                    .lock_order
                                    .iter()
                                    .position(|&u| u == vertex)
                                    .unwrap_or(fl.lock_order.len());
                                fl.t_start
                                    + (pos as f64 + 1.0) * a * machine.compute_factor(owner, n)
                            })
                            .unwrap_or(f64::NEG_INFINITY);

                        if owner_fl.is_some() && t_me < t_owner_acq && retries < 8 {
                            // I reach the vertex first: the owner is wounded
                            // and rolls back at its (virtual) acquisition time
                            let fl = inflight[owner].take().unwrap();
                            let owner_victim = match &fl.prep {
                                Prep::Remove(_, v) => Some(*v),
                                Prep::Insert(..) => None,
                            };
                            let owner_started = fl.t_start;
                            let owner_element = fl.element;
                            drop(fl.prep);
                            ctxs[owner].abort();
                            stats[owner].rollbacks += 1;
                            stats[owner].add_overhead(
                                OverheadKind::Rollback,
                                t_owner_acq - owner_started,
                                trace.then_some(t_owner_acq),
                            );
                            if let Some(el) = owner_element {
                                pels[owner].push_back(el);
                            } else if let Some(v) = owner_victim {
                                pending_removals[owner].push_front(v);
                            }
                            let active = count_active(&states);
                            let mut slept = 0.0;
                            match cm.on_rollback(owner, vt, t_owner_acq, active, &mut slept) {
                                Some(at) => {
                                    if slept > 0.0 {
                                        stats[owner].add_overhead(
                                            OverheadKind::Contention,
                                            slept,
                                            trace.then_some(at),
                                        );
                                    }
                                    states[owner] = VtState::Ready(at);
                                }
                                None => states[owner] = VtState::CmBlocked(t_owner_acq),
                            }
                            // retry my prepare from the moment I claimed it
                            t_try = t_me;
                            continue;
                        }
                        // I lose: rollback
                        stats[vt].rollbacks += 1;
                        stats[vt].add_overhead(
                            OverheadKind::Rollback,
                            t_me - t_try,
                            trace.then_some(t_me),
                        );
                        if is_removal {
                            pending_removals[vt].push_front(victim);
                        } else if let Some(el) = element {
                            pels[vt].push_back(el);
                        }
                        let active = count_active(&states);
                        let mut slept = 0.0;
                        match cm.on_rollback(vt, owner, t_me, active, &mut slept) {
                            Some(at) => {
                                if slept > 0.0 {
                                    stats[vt].add_overhead(
                                        OverheadKind::Contention,
                                        slept,
                                        trace.then_some(at),
                                    );
                                }
                                states[vt] = VtState::Ready(at);
                            }
                            None => states[vt] = VtState::CmBlocked(t_me),
                        }
                        break;
                    }
                    Err(OpError::RemovalBlocked) => {
                        stats[vt].removals_blocked += 1;
                        states[vt] = VtState::Ready(t_try + cost.skip * cf);
                        break;
                    }
                    Err(_) => {
                        stats[vt].skipped += 1;
                        states[vt] = VtState::Ready(t_try + cost.skip * cf);
                        break;
                    }
                }
            }
        }

        sim.aborted = sim.events >= max_events || hit_real_cap;
        // abort anything still in flight (livelock/cap exits)
        for vt in 0..n {
            if let Some(fl) = inflight[vt].take() {
                drop(fl.prep);
                ctxs[vt].abort();
            }
        }
        drop(ctxs);

        let final_mesh = FinalMesh::extract(&mesh, &oracle);
        sim.vtime = t_now;
        sim.edt_vtime = edt_vtime;
        // energy model: parked time (contention + load-balance waits) draws
        // idle power; everything else draws busy power.
        let mut e_full = 0.0;
        let mut e_throttled = 0.0;
        for st in &stats {
            let parked = (st.contention_overhead + st.load_balance_overhead).min(t_now);
            let busy = (t_now - parked).max(0.0);
            e_full += busy * cost.busy_watts + parked * cost.idle_watts;
            e_throttled += busy * cost.busy_watts + parked * cost.throttled_idle_watts;
        }
        sim.energy_joules = e_full;
        sim.energy_joules_throttled = e_throttled;
        sim.per_thread = stats;
        sim.livelock = livelock;
        sim.final_elements = final_mesh.num_tets();
        sim.vertices_allocated = mesh.num_vertices();

        SimOutput {
            mesh: final_mesh,
            stats: sim,
        }
    }
}

fn count_active(states: &[VtState]) -> usize {
    states
        .iter()
        .filter(|s| matches!(s, VtState::Ready(_) | VtState::InFlight))
        .count()
}
