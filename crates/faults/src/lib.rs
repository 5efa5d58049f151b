//! # pi2m-faults
//!
//! Deterministic, seed-driven fault injection (DST-style) for the PI2M
//! meshing pipeline. A [`FaultPlan`] is a small set of rules, each naming an
//! injection *site* (a static string threaded through the kernel and the
//! refinement engine, see [`sites`]), a fault [`FaultKind`], and a firing
//! schedule. The plan is armed explicitly — a disarmed plan (or, cheaper, no
//! plan at all) costs a single branch at every site.
//!
//! Firing is deterministic for a given `(seed, plan)` pair up to the arrival
//! *count* at a site: rules count arrivals with a shared atomic, so which
//! thread hits the firing arrival may vary between runs, but the number of
//! injected faults never does. The seed perturbs the phase of periodic rules
//! and drives the hash gate of probabilistic rules, so a CI matrix over seeds
//! explores different interleavings of the same failure classes.
//!
//! Plan syntax (also accepted from the `PI2M_FAULT_PLAN` environment
//! variable; seed from `PI2M_FAULT_SEED`):
//!
//! ```text
//! site=<name|prefix*>,kind=<panic|deny|fail|delay>[,every=N][,nth=N]
//!     [,prob=P][,count=C][,delay_ms=D] [; <next rule> ...]
//! ```
//!
//! * `every=N` — fire on every Nth arrival (seed-phased); default 1.
//! * `nth=N` — fire exactly on the Nth arrival (overrides `every`).
//! * `prob=P` — additionally gate each candidate arrival by a seeded hash.
//! * `count=C` — cap the total number of fires (default: unlimited).
//! * `delay_ms=D` — sleep duration for `kind=delay` (default 10).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Injection site names. Sites are plain static strings so that plans can be
/// written by hand; the constants exist to keep producer and consumer in
/// sync. A rule site ending in `*` matches by prefix.
pub mod sites {
    /// Per-vertex try-lock acquisition (kernel hot path).
    pub const LOCK_ACQUIRE: &str = "delaunay.lock.acquire";
    /// Start of an insertion's cavity expansion (before any lock).
    pub const INSERT_PREPARE: &str = "delaunay.insert.prepare";
    /// Between a prepared insertion and its commit (locks held).
    pub const INSERT_COMMIT: &str = "delaunay.insert.commit";
    /// Start of a removal's ball gathering (before any lock).
    pub const REMOVE_PREPARE: &str = "delaunay.remove.prepare";
    /// Between a prepared removal and its commit (locks held).
    pub const REMOVE_COMMIT: &str = "delaunay.remove.commit";
    /// Start of a point-location walk.
    pub const WALK_LOCATE: &str = "delaunay.walk.locate";
    /// Start of one work-item operation (inside the engine's panic shield).
    pub const ENGINE_OP: &str = "refine.engine.op";
    /// Top of a worker's main loop (outside the shield: a panic here kills
    /// the whole worker, exercising dead-worker accounting).
    pub const ENGINE_WORKER: &str = "refine.engine.worker";
    /// Just before the contention manager's rollback consultation.
    pub const CM_ROLLBACK: &str = "refine.cm.rollback";
    /// Just before parking in the load balancer's begging list.
    pub const BALANCER_BEG: &str = "refine.balancer.beg";
    /// Admission control of the meshing service's job queue (`pi2m serve`):
    /// `fail` sheds the job as if the queue were full, `delay` stalls the
    /// submitting connection.
    pub const SERVE_ADMIT: &str = "serve.queue.admit";
    /// Checkout of a warm session slot for a job attempt: `fail` poisons the
    /// checkout (the service recycles the session and retries), `delay`
    /// holds the slot busy.
    pub const SERVE_CHECKOUT: &str = "serve.session.checkout";
    /// Artifact flush after a successful mesh: `fail` makes the write report
    /// an I/O error (transient from the service's point of view).
    pub const SERVE_ARTIFACT: &str = "serve.artifact.write";
    /// Top of a worker's main loop during the seam-stitch pass of a sharded
    /// run only (outside the per-op shield, like `ENGINE_WORKER`): a `panic`
    /// here kills a stitch worker mid-seam, exercising the guarantee that a
    /// sharded session survives a mid-stitch death.
    pub const SHARD_STITCH: &str = "shard.stitch";

    /// Every site some code fires. [`FaultPlan::parse`](super::FaultPlan::parse)
    /// refuses a rule that names none of them, so a misspelt drill fails
    /// loudly instead of arming nothing.
    pub const ALL: &[&str] = &[
        LOCK_ACQUIRE,
        INSERT_PREPARE,
        INSERT_COMMIT,
        REMOVE_PREPARE,
        REMOVE_COMMIT,
        WALK_LOCATE,
        ENGINE_OP,
        ENGINE_WORKER,
        CM_ROLLBACK,
        BALANCER_BEG,
        SERVE_ADMIT,
        SERVE_CHECKOUT,
        SERVE_ARTIFACT,
        SHARD_STITCH,
    ];
}

/// What a firing rule does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (isolated by the engine's `catch_unwind` shield, or
    /// fatal to the worker at [`sites::ENGINE_WORKER`]).
    Panic,
    /// Report an artificial lock-acquire denial / conflict.
    Deny,
    /// Force the operation's predicate filter to report failure (the site
    /// maps this to its natural typed error, e.g. `Degenerate`).
    Fail,
    /// Sleep `delay_ms` at the site (delayed rollback / slow worker).
    Delay,
}

/// A fault the call-site must now act on. `Delay` and `Panic` are handled
/// inside [`FaultPlan::fire`] and never surface here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injected {
    /// Behave as if a lock acquire was denied.
    Deny,
    /// Behave as if the operation's predicate/validation failed.
    Fail,
}

/// One parsed rule with its firing state.
#[derive(Debug)]
pub struct FaultRule {
    pub site: String,
    pub kind: FaultKind,
    pub every: u64,
    pub nth: u64,
    pub prob: f64,
    pub count: u64,
    pub delay_ms: u64,
    /// Seed-derived phase for `every` rules, in `0..every`.
    phase: u64,
    arrivals: AtomicU64,
    fired: AtomicU64,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A deterministic fault plan. Cheap to consult when disarmed; shared across
/// threads behind an `Arc` by the engine.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    injected: AtomicU64,
}

/// splitmix64: the avalanche stage used both for the seed phase and for the
/// probabilistic gate. Deterministic and dependency-free.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn disarmed() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a plan from its textual form. An empty spec yields a disarmed
    /// plan.
    pub fn parse(seed: u64, spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for (ri, rule_src) in spec
            .split(';')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .enumerate()
        {
            let mut site = None;
            let mut kind = None;
            let mut every = 1u64;
            let mut nth = 0u64;
            let mut prob = 1.0f64;
            let mut count = u64::MAX;
            let mut delay_ms = 10u64;
            for field in rule_src.split(',').map(str::trim).filter(|f| !f.is_empty()) {
                let (k, v) = field
                    .split_once('=')
                    .ok_or_else(|| format!("rule {ri}: expected key=value, got '{field}'"))?;
                let v = v.trim();
                match k.trim() {
                    "site" => site = Some(v.to_string()),
                    "kind" => {
                        kind = Some(match v {
                            "panic" => FaultKind::Panic,
                            "deny" => FaultKind::Deny,
                            "fail" => FaultKind::Fail,
                            "delay" => FaultKind::Delay,
                            other => return Err(format!("rule {ri}: unknown kind '{other}'")),
                        })
                    }
                    "every" => {
                        every = v
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("rule {ri}: bad every '{v}'"))?
                    }
                    "nth" => {
                        nth = v
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("rule {ri}: bad nth '{v}'"))?
                    }
                    "prob" => {
                        prob = v
                            .parse()
                            .ok()
                            .filter(|p: &f64| (0.0..=1.0).contains(p))
                            .ok_or_else(|| format!("rule {ri}: bad prob '{v}'"))?
                    }
                    "count" => {
                        count = v
                            .parse()
                            .map_err(|_| format!("rule {ri}: bad count '{v}'"))?
                    }
                    "delay_ms" => {
                        delay_ms = v
                            .parse()
                            .map_err(|_| format!("rule {ri}: bad delay_ms '{v}'"))?
                    }
                    other => return Err(format!("rule {ri}: unknown key '{other}'")),
                }
            }
            let site = site.ok_or_else(|| format!("rule {ri}: missing site="))?;
            let kind = kind.ok_or_else(|| format!("rule {ri}: missing kind="))?;
            let known = match site.strip_suffix('*') {
                Some(prefix) => sites::ALL.iter().any(|s| s.starts_with(prefix)),
                None => sites::ALL.contains(&site.as_str()),
            };
            if !known {
                return Err(format!(
                    "rule {ri}: unknown site '{site}' (sites: {})",
                    sites::ALL.join(", ")
                ));
            }
            let phase = if nth == 0 && every > 1 {
                mix(seed ^ hash_str(&site) ^ (ri as u64)) % every
            } else {
                0
            };
            rules.push(FaultRule {
                site,
                kind,
                every,
                nth,
                prob,
                count,
                delay_ms,
                phase,
                arrivals: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan {
            seed,
            rules,
            injected: AtomicU64::new(0),
        })
    }

    /// Build a plan from `PI2M_FAULT_PLAN` / `PI2M_FAULT_SEED`. Returns
    /// `Ok(None)` when no plan is configured.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        let spec = match std::env::var("PI2M_FAULT_PLAN") {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Ok(None),
        };
        let seed = match std::env::var("PI2M_FAULT_SEED") {
            Ok(s) => s
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("PI2M_FAULT_SEED: not a u64: '{s}'"))?,
            Err(_) => 0,
        };
        FaultPlan::parse(seed, &spec).map(Some)
    }

    /// Whether any rule can fire.
    #[inline]
    pub fn is_armed(&self) -> bool {
        !self.rules.is_empty()
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Total faults injected so far (all kinds).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// One-line description for logs.
    pub fn describe(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| format!("{}:{:?}", r.site, r.kind))
            .collect();
        format!("seed={} rules=[{}]", self.seed, rules.join(", "))
    }

    /// Consult the plan at a site. May panic (`kind=panic`) or sleep
    /// (`kind=delay`); returns `Some` when the caller must act ([`Injected`]).
    #[inline]
    pub fn fire(&self, site: &'static str, tid: u32) -> Option<Injected> {
        debug_assert!(
            sites::ALL.contains(&site),
            "fault site '{site}' is not in sites::ALL"
        );
        if self.rules.is_empty() {
            return None;
        }
        self.fire_slow(site, tid)
    }

    #[cold]
    fn fire_slow(&self, site: &'static str, tid: u32) -> Option<Injected> {
        for rule in &self.rules {
            if !rule.matches(site) {
                continue;
            }
            let n = rule.arrivals.fetch_add(1, Ordering::Relaxed) + 1;
            let due = if rule.nth > 0 {
                n == rule.nth
            } else {
                n % rule.every == (rule.phase + 1) % rule.every
            };
            if !due {
                continue;
            }
            if rule.prob < 1.0 {
                let h = mix(self.seed ^ hash_str(&rule.site) ^ n);
                if (h >> 11) as f64 / (1u64 << 53) as f64 >= rule.prob {
                    continue;
                }
            }
            if rule.fired.fetch_add(1, Ordering::Relaxed) >= rule.count {
                continue; // cap reached (over-count is harmless)
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            match rule.kind {
                FaultKind::Panic => {
                    panic!("injected fault: panic at '{site}' (arrival {n}, tid {tid})")
                }
                FaultKind::Delay => std::thread::sleep(Duration::from_millis(rule.delay_ms)),
                FaultKind::Deny => return Some(Injected::Deny),
                FaultKind::Fail => return Some(Injected::Fail),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(plan: &FaultPlan, site: &'static str, arrivals: u64) -> Vec<u64> {
        (1..=arrivals)
            .filter(|_| plan.fire(site, 0).is_some())
            .collect()
    }

    #[test]
    fn disarmed_plan_never_fires() {
        let p = FaultPlan::disarmed();
        assert!(!p.is_armed());
        for _ in 0..100 {
            assert_eq!(p.fire(sites::LOCK_ACQUIRE, 0), None);
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn empty_spec_is_disarmed() {
        assert!(!FaultPlan::parse(1, "  ").unwrap().is_armed());
    }

    #[test]
    fn nth_rule_fires_exactly_once() {
        let p = FaultPlan::parse(0, "site=delaunay.walk.locate,kind=deny,nth=3").unwrap();
        let hits = fires(&p, sites::WALK_LOCATE, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn every_rule_respects_count_cap() {
        let p =
            FaultPlan::parse(7, "site=delaunay.insert.commit,kind=fail,every=5,count=2").unwrap();
        let hits = fires(&p, sites::INSERT_COMMIT, 100);
        assert_eq!(hits.len(), 2, "count=2 must cap fires, got {hits:?}");
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn deterministic_for_same_seed_and_plan() {
        let spec =
            "site=delaunay.*,kind=deny,every=7,count=10;site=refine.engine.op,kind=fail,prob=0.25";
        let a = FaultPlan::parse(42, spec).unwrap();
        let b = FaultPlan::parse(42, spec).unwrap();
        let mut pattern_a = Vec::new();
        let mut pattern_b = Vec::new();
        for _ in 0..500 {
            pattern_a.push(a.fire(sites::LOCK_ACQUIRE, 0).is_some());
            pattern_a.push(a.fire(sites::ENGINE_OP, 0).is_some());
            pattern_b.push(b.fire(sites::LOCK_ACQUIRE, 0).is_some());
            pattern_b.push(b.fire(sites::ENGINE_OP, 0).is_some());
        }
        assert_eq!(pattern_a, pattern_b);
        assert!(a.injected() > 0);
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn seed_perturbs_periodic_phase() {
        // two seeds should (for this site/period) fire at different arrivals
        let a = FaultPlan::parse(1, "site=delaunay.lock.acquire,kind=deny,every=50").unwrap();
        let b = FaultPlan::parse(2, "site=delaunay.lock.acquire,kind=deny,every=50").unwrap();
        assert_ne!(a.rules()[0].phase, b.rules()[0].phase);
    }

    #[test]
    fn prefix_match() {
        let p = FaultPlan::parse(0, "site=delaunay.*,kind=fail").unwrap();
        assert!(p.fire(sites::INSERT_PREPARE, 0).is_some());
        assert!(p.fire(sites::REMOVE_PREPARE, 0).is_some());
        assert_eq!(p.fire(sites::ENGINE_OP, 0), None);
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn panic_kind_panics() {
        let p = FaultPlan::parse(0, "site=refine.engine.worker,kind=panic").unwrap();
        p.fire(sites::ENGINE_WORKER, 3);
    }

    #[test]
    fn parse_rejects_malformed_rules() {
        assert!(FaultPlan::parse(0, "kind=panic").is_err()); // missing site
        assert!(FaultPlan::parse(0, "site=x").is_err()); // missing kind
        assert!(FaultPlan::parse(0, "site=x,kind=explode").is_err());
        assert!(FaultPlan::parse(0, "site=x,kind=deny,every=0").is_err());
        assert!(FaultPlan::parse(0, "site=x,kind=deny,prob=1.5").is_err());
        assert!(FaultPlan::parse(0, "site=x,kind=deny,bogus=1").is_err());
        assert!(FaultPlan::parse(0, "site=x,kind=deny,novalue").is_err());
    }

    #[test]
    fn parse_refuses_sites_that_nothing_fires() {
        for site in ["lock.acquire", "serve.queue", "nope*", "refine.engine.ops"] {
            let err = FaultPlan::parse(0, &format!("site={site},kind=deny")).unwrap_err();
            assert!(err.contains(&format!("'{site}'")), "{site}: {err}");
        }
        // an exact name and a prefix that matches some site both parse
        assert!(FaultPlan::parse(0, "site=delaunay.lock.acquire,kind=deny").is_ok());
        assert!(FaultPlan::parse(0, "site=serve.*,kind=fail").is_ok());
        assert!(FaultPlan::parse(0, "site=*,kind=delay").is_ok());
    }

    #[test]
    fn multi_rule_plans_fire_independently() {
        let p = FaultPlan::parse(
            9,
            "site=delaunay.insert.commit,kind=fail,nth=1;site=delaunay.remove.commit,kind=deny,nth=2",
        )
        .unwrap();
        assert_eq!(p.fire(sites::INSERT_COMMIT, 0), Some(Injected::Fail));
        assert_eq!(p.fire(sites::REMOVE_COMMIT, 0), None);
        assert_eq!(p.fire(sites::REMOVE_COMMIT, 0), Some(Injected::Deny));
        assert_eq!(p.injected(), 2);
    }

    #[test]
    fn delay_kind_sleeps_and_returns_none() {
        let p =
            FaultPlan::parse(0, "site=refine.cm.rollback,kind=delay,delay_ms=1,count=1").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(p.fire(sites::CM_ROLLBACK, 0), None);
        assert!(t0.elapsed() >= Duration::from_millis(1));
        assert_eq!(p.injected(), 1);
    }
}
