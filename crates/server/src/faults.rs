//! Deterministic fault injection for the chaos harness.
//!
//! A fault plan is parsed from a spec string (usually the `SCAST_FAULTS`
//! environment variable) of the form
//!
//! ```text
//!   panic@solve:0.01,stall@read:0.05,err@wal_append:0.1;seed=42
//! ```
//!
//! — a comma-separated list of `action@site:rate` injection points plus an
//! optional `;seed=N` suffix. Actions are `panic` (the handler panics,
//! exercising `catch_unwind` isolation), `stall` (the handler sleeps
//! [`STALL`], exercising timeouts and queueing), and the **disk** actions
//! `err` (the I/O call fails with an injected error) and `short` (the
//! write lands partially — a torn record — then fails). Sites are named
//! check points: the control-flow sites (`read`, `solve`, `demand`,
//! `update`) call [`FaultPlan::fire`]; the disk sites (`wal_append`,
//! `snapshot_save`) call [`FaultPlan::fire_disk`] and act on its verdict.
//!
//! Firing is **deterministic**: each site keeps a hit counter, and hit
//! `n` fires iff `mix(seed, site, n) % 1e6 < rate·1e6`. Two runs with the
//! same seed, spec, and per-site request order inject identical faults —
//! no randomness, no time dependence — which is what lets the chaos test
//! assert exact reply well-formedness rather than probabilistic survival.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// How long a `stall` fault sleeps.
pub const STALL: Duration = Duration::from_millis(20);

/// Panic payloads injected by the harness start with this prefix; the
/// panic hook installed by [`FaultPlan::quiet_hook`] suppresses their
/// backtrace spam.
pub const PANIC_PREFIX: &str = "injected fault";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Panic,
    Stall,
    Err,
    Short,
}

/// The verdict of a disk-site check point: how the I/O call should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// Fail the call outright with an injected [`std::io::Error`] — see
    /// [`DiskFault::to_error`] — without touching the file.
    Error,
    /// Write only a prefix of the record (a torn tail on disk), then fail.
    ShortWrite,
}

impl DiskFault {
    /// The injected error a failed disk call should surface.
    pub fn to_error(self, site: &str) -> std::io::Error {
        let what = match self {
            DiskFault::Error => "injected disk error",
            DiskFault::ShortWrite => "injected short write",
        };
        std::io::Error::other(format!("{what} at {site}"))
    }
}

#[derive(Debug)]
struct Point {
    action: Action,
    site: String,
    rate_ppm: u64,
    hits: AtomicU64,
}

/// A parsed set of injection points. The default plan is empty (fires
/// nothing) and costs one branch per check point.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<Point>,
    seed: u64,
}

/// splitmix64-style mixer: uniform enough for rate thresholds, fully
/// deterministic, no state. The client's retry jitter uses it too.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn site_hash(site: &str) -> u64 {
    crate::snapshot::fnv64(site.as_bytes())
}

impl FaultPlan {
    /// Parses a spec string; see the module docs for the grammar. An empty
    /// string is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let (body, seed) = match spec.split_once(';') {
            Some((body, tail)) => {
                let seed = tail
                    .trim()
                    .strip_prefix("seed=")
                    .ok_or_else(|| format!("expected `seed=N` after `;`, got `{tail}`"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed: {e}"))?;
                (body, seed)
            }
            None => (spec, 0),
        };
        plan.seed = seed;
        for item in body.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (action, rest) = item
                .split_once('@')
                .ok_or_else(|| format!("expected `action@site:rate`, got `{item}`"))?;
            let action = match action {
                "panic" => Action::Panic,
                "stall" => Action::Stall,
                "err" => Action::Err,
                "short" => Action::Short,
                other => return Err(format!("unknown fault action `{other}`")),
            };
            let (site, rate) = rest
                .split_once(':')
                .ok_or_else(|| format!("expected `site:rate` after `@`, got `{rest}`"))?;
            let rate: f64 = rate.parse().map_err(|e| format!("bad rate `{rate}`: {e}"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate {rate} out of [0, 1]"));
            }
            plan.points.push(Point {
                action,
                site: site.to_string(),
                rate_ppm: (rate * 1e6).round() as u64,
                hits: AtomicU64::new(0),
            });
        }
        Ok(plan)
    }

    /// The plan from `SCAST_FAULTS`, or the empty plan when unset. A
    /// malformed spec is a startup error, not a silent no-op.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("SCAST_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// True when at least one injection point is configured.
    pub fn is_active(&self) -> bool {
        !self.points.is_empty()
    }

    /// A control-flow check point. Stalls sleep [`STALL`]; panics unwind
    /// with a [`PANIC_PREFIX`]-tagged payload (the server's `catch_unwind`
    /// converts them into `internal` error replies). Disk actions (`err`,
    /// `short`) are ignored here — they belong to
    /// [`fire_disk`](FaultPlan::fire_disk) sites.
    pub fn fire(&self, site: &str) {
        for p in &self.points {
            if p.site != site || matches!(p.action, Action::Err | Action::Short) {
                continue;
            }
            let n = p.hits.fetch_add(1, Relaxed);
            if mix(self.seed ^ site_hash(site) ^ n) % 1_000_000 >= p.rate_ppm {
                continue;
            }
            match p.action {
                Action::Stall => std::thread::sleep(STALL),
                Action::Panic => panic!("{PANIC_PREFIX} at {site} (hit {n})"),
                Action::Err | Action::Short => unreachable!("filtered above"),
            }
        }
    }

    /// A disk-I/O check point: returns how the call should fail, or `None`
    /// to proceed normally. The caller owns acting on the verdict (the
    /// injection point cannot reach into the file itself), which keeps the
    /// schedule deterministic: each point's hit counter advances once per
    /// call, exactly like [`fire`](FaultPlan::fire).
    pub fn fire_disk(&self, site: &str) -> Option<DiskFault> {
        let mut verdict = None;
        for p in &self.points {
            if p.site != site || !matches!(p.action, Action::Err | Action::Short) {
                continue;
            }
            let n = p.hits.fetch_add(1, Relaxed);
            if mix(self.seed ^ site_hash(site) ^ n) % 1_000_000 >= p.rate_ppm {
                continue;
            }
            let f = match p.action {
                Action::Err => DiskFault::Error,
                Action::Short => DiskFault::ShortWrite,
                _ => unreachable!("filtered above"),
            };
            // First firing wins, but every matching point still advances
            // its counter so schedules stay independent per point.
            verdict = verdict.or(Some(f));
        }
        verdict
    }

    /// Installs (once, process-wide) a panic hook that suppresses the
    /// default backtrace spam for injected panics while chaining every
    /// other panic to the previous hook.
    pub fn quiet_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with(PANIC_PREFIX));
                if !injected {
                    prev(info);
                }
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let p = FaultPlan::parse("panic@solve:0.01,stall@read:0.05;seed=42").unwrap();
        assert!(p.is_active());
        assert_eq!(p.seed, 42);
        assert_eq!(p.points.len(), 2);
        assert_eq!(p.points[0].rate_ppm, 10_000);
        assert_eq!(p.points[1].action, Action::Stall);
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert!(!FaultPlan::default().is_active());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("explode@solve:0.1").is_err());
        assert!(FaultPlan::parse("panic-solve:0.1").is_err());
        assert!(FaultPlan::parse("panic@solve").is_err());
        assert!(FaultPlan::parse("panic@solve:2.0").is_err());
        assert!(FaultPlan::parse("panic@solve:0.1;sod=1").is_err());
        assert!(FaultPlan::parse("panic@solve:0.1;seed=x").is_err());
    }

    #[test]
    fn firing_is_deterministic_in_seed_and_counter() {
        let fired = |seed: u64| {
            let p = FaultPlan::parse(&format!("stall@x:0.5;seed={seed}")).unwrap();
            let point = &p.points[0];
            (0..64)
                .map(|n| mix(p.seed ^ site_hash("x") ^ n) % 1_000_000 < point.rate_ppm)
                .collect::<Vec<bool>>()
        };
        assert_eq!(fired(7), fired(7), "same seed, same schedule");
        assert_ne!(fired(7), fired(8), "different seed, different schedule");
        let hits7: usize = fired(7).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&hits7), "rate 0.5 over 64: {hits7}");
    }

    #[test]
    fn rate_one_panics_and_is_catchable() {
        FaultPlan::quiet_hook();
        let p = FaultPlan::parse("panic@always:1.0").unwrap();
        p.fire("elsewhere"); // different site: no-op
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.fire("always")))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with(PANIC_PREFIX), "{msg}");
    }

    #[test]
    fn rate_zero_never_fires() {
        let p = FaultPlan::parse("panic@x:0.0").unwrap();
        for _ in 0..1000 {
            p.fire("x");
        }
    }

    #[test]
    fn disk_actions_parse_and_fire_only_at_disk_check_points() {
        let p = FaultPlan::parse("err@wal_append:1.0,short@snapshot_save:1.0").unwrap();
        assert!(p.is_active());
        // `fire` ignores disk points entirely: no panic, no stall.
        p.fire("wal_append");
        p.fire("snapshot_save");
        assert_eq!(p.fire_disk("wal_append"), Some(DiskFault::Error));
        assert_eq!(p.fire_disk("snapshot_save"), Some(DiskFault::ShortWrite));
        assert_eq!(p.fire_disk("elsewhere"), None);
        // Conversely, control-flow points never fire at a disk check.
        let q = FaultPlan::parse("panic@wal_append:1.0").unwrap();
        assert_eq!(q.fire_disk("wal_append"), None);
        let e = DiskFault::Error.to_error("wal_append");
        assert!(e.to_string().contains("injected disk error at wal_append"), "{e}");
    }

    #[test]
    fn disk_firing_is_deterministic_in_seed_and_counter() {
        let fired = |seed: u64| {
            let p = FaultPlan::parse(&format!("err@w:0.5;seed={seed}")).unwrap();
            (0..64).map(|_| p.fire_disk("w").is_some()).collect::<Vec<bool>>()
        };
        assert_eq!(fired(3), fired(3), "same seed, same disk schedule");
        assert_ne!(fired(3), fired(4), "different seed, different schedule");
    }
}
