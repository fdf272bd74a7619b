//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes which faults to inject where; it comes from
//! the `LDMO_FAULTS` environment variable ([`init_from_env`]), a spec
//! string ([`FaultPlan::from_spec`]), a seed ([`FaultPlan::seeded`]), or
//! plain struct construction in tests. Installation is process-global and
//! gated behind a relaxed atomic ([`active`]) exactly like the `ldmo-obs`
//! collector: with no plan installed, every injection-point query is one
//! relaxed load plus a branch, so production hot paths pay nothing.
//!
//! ## Spec grammar (DESIGN.md §11)
//!
//! `LDMO_FAULTS` is a `;`-separated list of entries:
//!
//! | entry                | injection                                             |
//! |----------------------|-------------------------------------------------------|
//! | `nan-grad@K`         | poison the ILT gradients with NaN at iteration `K`    |
//! | `panic@J`            | panic inside parallel task `J` of catching fan-outs   |
//! | `truncate-model@N`   | truncate model bytes to `N` bytes on load             |
//! | `flip-model@N`       | XOR-flip model byte `N` on load                       |
//! | `nan-weight@I`       | overwrite checkpoint weight `I` with NaN on load      |
//! | `stall@J:MS`         | sleep `MS` ms inside candidate task `J`               |
//! | `drop-conn@K`        | close accepted connection `K` without a response      |
//! | `slow-io@K:MS`       | delay connection `K`'s I/O by `MS` ms                 |
//! | `seed@S`             | derive a deterministic plan from seed `S`             |
//!
//! Every injection is a pure function of the plan and the (iteration,
//! task, byte) coordinates — no randomness at fire time — so chaos tests
//! replay bit-identically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// How to corrupt model bytes on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFault {
    /// Truncate the byte stream to this length.
    Truncate {
        /// Length to truncate to.
        at: usize,
    },
    /// XOR-flip the byte at this offset (wrapped into the payload).
    FlipByte {
        /// Byte offset to flip.
        at: usize,
    },
    /// Overwrite the `index`-th stored `f32` with NaN.
    NanWeight {
        /// Weight index to poison.
        index: usize,
    },
}

/// A deterministic fault-injection plan. `Default` injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Poison the ILT gradients with NaN at this iteration index.
    pub nan_grad_at: Option<usize>,
    /// Panic inside this task index of panic-catching parallel fans.
    pub panic_at_task: Option<usize>,
    /// Corrupt model bytes on the next load.
    pub corrupt_model: Option<ModelFault>,
    /// Sleep `(task, duration)` inside candidate evaluations.
    pub stall: Option<(usize, Duration)>,
    /// Close this accepted connection index without a response (network
    /// fault: the peer sees EOF/reset and must retry).
    pub drop_conn_at: Option<usize>,
    /// Delay `(connection, duration)` before serving this accepted
    /// connection's I/O (network fault: a slow link, not a slow worker).
    pub slow_io: Option<(usize, Duration)>,
}

/// Error from parsing an `LDMO_FAULTS` spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending entry.
    pub entry: String,
    /// Why it did not parse.
    pub reason: String,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault entry '{}': {}", self.entry, self.reason)
    }
}

impl std::error::Error for FaultSpecError {}

impl From<FaultSpecError> for crate::LdmoError {
    fn from(e: FaultSpecError) -> Self {
        crate::LdmoError::Fault {
            detail: e.to_string(),
        }
    }
}

fn parse_index(entry: &str, value: &str) -> Result<usize, FaultSpecError> {
    value.parse::<usize>().map_err(|_| FaultSpecError {
        entry: entry.to_owned(),
        reason: format!("'{value}' is not a non-negative integer"),
    })
}

impl FaultPlan {
    /// Parses a plan from the spec grammar (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] naming the first malformed entry.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind, value) = entry.split_once('@').ok_or_else(|| FaultSpecError {
                entry: entry.to_owned(),
                reason: "expected 'kind@value'".to_owned(),
            })?;
            match kind {
                "nan-grad" => plan.nan_grad_at = Some(parse_index(entry, value)?),
                "panic" => plan.panic_at_task = Some(parse_index(entry, value)?),
                "truncate-model" => {
                    plan.corrupt_model = Some(ModelFault::Truncate {
                        at: parse_index(entry, value)?,
                    });
                }
                "flip-model" => {
                    plan.corrupt_model = Some(ModelFault::FlipByte {
                        at: parse_index(entry, value)?,
                    });
                }
                "nan-weight" => {
                    plan.corrupt_model = Some(ModelFault::NanWeight {
                        index: parse_index(entry, value)?,
                    });
                }
                "stall" => {
                    let (task, ms) = value.split_once(':').ok_or_else(|| FaultSpecError {
                        entry: entry.to_owned(),
                        reason: "expected 'stall@TASK:MS'".to_owned(),
                    })?;
                    plan.stall = Some((
                        parse_index(entry, task)?,
                        Duration::from_millis(parse_index(entry, ms)? as u64),
                    ));
                }
                "drop-conn" => plan.drop_conn_at = Some(parse_index(entry, value)?),
                "slow-io" => {
                    let (conn, ms) = value.split_once(':').ok_or_else(|| FaultSpecError {
                        entry: entry.to_owned(),
                        reason: "expected 'slow-io@CONN:MS'".to_owned(),
                    })?;
                    plan.slow_io = Some((
                        parse_index(entry, conn)?,
                        Duration::from_millis(parse_index(entry, ms)? as u64),
                    ));
                }
                "seed" => {
                    let seeded = FaultPlan::seeded(parse_index(entry, value)? as u64);
                    plan = plan.merge(seeded);
                }
                other => {
                    return Err(FaultSpecError {
                        entry: entry.to_owned(),
                        reason: format!("unknown fault kind '{other}'"),
                    });
                }
            }
        }
        Ok(plan)
    }

    /// Derives a deterministic plan from a seed (splitmix64 over the seed
    /// picks small iteration/task/byte coordinates). The same seed always
    /// yields the same plan, so seeded chaos runs are replayable.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        FaultPlan {
            nan_grad_at: Some((next() % 8) as usize),
            panic_at_task: Some((next() % 4) as usize),
            corrupt_model: Some(ModelFault::FlipByte {
                at: (next() % 256) as usize,
            }),
            stall: Some(((next() % 4) as usize, Duration::from_millis(next() % 50))),
            // network faults are opt-in per spec: a seeded compute-chaos
            // plan must not silently start killing connections
            ..FaultPlan::default()
        }
    }

    /// Merges `other` into `self` (fields set in `other` win).
    pub fn merge(self, other: FaultPlan) -> FaultPlan {
        FaultPlan {
            nan_grad_at: other.nan_grad_at.or(self.nan_grad_at),
            panic_at_task: other.panic_at_task.or(self.panic_at_task),
            corrupt_model: other.corrupt_model.or(self.corrupt_model),
            stall: other.stall.or(self.stall),
            drop_conn_at: other.drop_conn_at.or(self.drop_conn_at),
            slow_io: other.slow_io.or(self.slow_io),
        }
    }
}

// ---------------------------------------------------------------------------
// The process-global installation
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn plan_cell() -> &'static Mutex<FaultPlan> {
    static PLAN: OnceLock<Mutex<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(FaultPlan::default()))
}

/// Whether a fault plan is installed. One relaxed atomic load — the
/// zero-cost gate every injection point checks first.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs `plan` process-globally (replacing any previous plan).
pub fn install(plan: FaultPlan) {
    *plan_cell().lock().unwrap_or_else(PoisonError::into_inner) = plan;
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the installed plan; [`active`] returns `false` afterwards.
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *plan_cell().lock().unwrap_or_else(PoisonError::into_inner) = FaultPlan::default();
}

/// A copy of the installed plan (`None` when inactive).
pub fn plan() -> Option<FaultPlan> {
    if !active() {
        return None;
    }
    Some(*plan_cell().lock().unwrap_or_else(PoisonError::into_inner))
}

/// Installs a plan from `LDMO_FAULTS` when the variable is set.
///
/// # Errors
///
/// Returns [`FaultSpecError`] when the spec is malformed (nothing is
/// installed in that case).
pub fn init_from_env() -> Result<bool, FaultSpecError> {
    match std::env::var("LDMO_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(FaultPlan::from_spec(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

// ---------------------------------------------------------------------------
// Injection-point queries (each: one relaxed load when inactive)
// ---------------------------------------------------------------------------

/// Whether the NaN-gradient fault fires at `iteration`.
#[inline]
pub fn nan_grad_at(iteration: usize) -> bool {
    active() && plan().and_then(|p| p.nan_grad_at) == Some(iteration)
}

/// Panics with a recognizable payload when the worker-panic fault targets
/// `task`. Call from inside panic-catching fan-outs only.
#[inline]
pub fn maybe_panic(task: usize) {
    if active() && plan().and_then(|p| p.panic_at_task) == Some(task) {
        panic!("ldmo-guard injected worker panic at task {task}");
    }
}

/// The installed model-corruption fault, if any.
#[inline]
pub fn corrupt_model() -> Option<ModelFault> {
    if !active() {
        return None;
    }
    plan().and_then(|p| p.corrupt_model)
}

/// Sleeps the planned stall when it targets `task`.
#[inline]
pub fn apply_stall(task: usize) {
    if !active() {
        return;
    }
    if let Some((t, d)) = plan().and_then(|p| p.stall) {
        if t == task && !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Whether the connection-drop fault targets accepted connection `conn`.
/// The serving layer closes that connection without a response; the peer
/// observes EOF/reset exactly as it would for a real network drop.
#[inline]
pub fn drop_conn_at(conn: usize) -> bool {
    active() && plan().and_then(|p| p.drop_conn_at) == Some(conn)
}

/// Sleeps the planned slow-I/O delay when it targets connection `conn`.
#[inline]
pub fn apply_slow_io(conn: usize) {
    if !active() {
        return;
    }
    if let Some((c, d)) = plan().and_then(|p| p.slow_io) {
        if c == conn && !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Applies `fault` to a model byte stream in place (helper shared by the
/// load paths and the chaos tests).
pub fn corrupt_bytes(bytes: &mut Vec<u8>, fault: ModelFault) {
    match fault {
        ModelFault::Truncate { at } => bytes.truncate(at.min(bytes.len())),
        ModelFault::FlipByte { at } => {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= 0xFF;
            }
        }
        ModelFault::NanWeight { index } => {
            // layout: 8-byte magic, u32 array count, then [u32 len, f32...]
            // frames; poke the index-th f32 slot after the 12-byte header
            // (skipping each frame's length word is not required for an
            // injection — any payload float will do).
            let offset = 12 + 4 + index * 4;
            if offset + 4 <= bytes.len() {
                bytes[offset..offset + 4].copy_from_slice(&f32::NAN.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global gate is process-wide; tests that install plans
    /// serialize on this.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn spec_roundtrip() {
        let spec = "nan-grad@3;panic@1;truncate-model@16;stall@0:100;drop-conn@4;slow-io@2:25";
        let plan = FaultPlan::from_spec(spec).expect("parses");
        assert_eq!(plan.nan_grad_at, Some(3));
        assert_eq!(plan.panic_at_task, Some(1));
        assert_eq!(plan.corrupt_model, Some(ModelFault::Truncate { at: 16 }));
        assert_eq!(plan.stall, Some((0, Duration::from_millis(100))));
        assert_eq!(plan.drop_conn_at, Some(4));
        assert_eq!(plan.slow_io, Some((2, Duration::from_millis(25))));
    }

    #[test]
    fn network_fault_queries() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        // inactive: one relaxed load, nothing fires
        assert!(!drop_conn_at(0));
        apply_slow_io(0); // no sleep
        install(FaultPlan {
            drop_conn_at: Some(3),
            slow_io: Some((1, Duration::from_millis(1))),
            ..FaultPlan::default()
        });
        assert!(drop_conn_at(3));
        assert!(!drop_conn_at(2));
        let t = std::time::Instant::now();
        apply_slow_io(1);
        assert!(t.elapsed() >= Duration::from_millis(1));
        apply_slow_io(0); // untargeted connection: no delay injected
        clear();
    }

    #[test]
    fn seeded_plans_leave_network_faults_unset() {
        let plan = FaultPlan::seeded(42);
        assert_eq!(plan.drop_conn_at, None);
        assert_eq!(plan.slow_io, None);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "nan-grad",
            "nan-grad@x",
            "warp@3",
            "stall@5",
            "stall@a:b",
            "drop-conn@x",
            "slow-io@5",
            "slow-io@a:b",
        ] {
            assert!(FaultPlan::from_spec(bad).is_err(), "accepted '{bad}'");
        }
        // empty entries are harmless
        assert_eq!(
            FaultPlan::from_spec(";;").expect("empty ok"),
            FaultPlan::default()
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(FaultPlan::seeded(42), FaultPlan::seeded(42));
        assert_ne!(FaultPlan::seeded(1), FaultPlan::seeded(2));
        let via_spec = FaultPlan::from_spec("seed@42").expect("parses");
        assert_eq!(via_spec, FaultPlan::seeded(42));
    }

    #[test]
    fn gate_and_queries() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        assert!(!active());
        assert!(!nan_grad_at(0));
        assert_eq!(corrupt_model(), None);
        install(FaultPlan {
            nan_grad_at: Some(2),
            ..FaultPlan::default()
        });
        assert!(active());
        assert!(nan_grad_at(2));
        assert!(!nan_grad_at(3));
        clear();
        assert!(!active());
    }

    #[test]
    fn corrupt_bytes_variants() {
        let mut b = vec![0u8; 64];
        corrupt_bytes(&mut b, ModelFault::Truncate { at: 10 });
        assert_eq!(b.len(), 10);
        corrupt_bytes(&mut b, ModelFault::FlipByte { at: 13 });
        assert_eq!(b[3], 0xFF); // 13 % 10
        let mut c = vec![0u8; 64];
        corrupt_bytes(&mut c, ModelFault::NanWeight { index: 0 });
        let v = f32::from_le_bytes([c[16], c[17], c[18], c[19]]);
        assert!(v.is_nan());
        // out-of-range injections are no-ops, never panics
        let mut tiny = vec![0u8; 4];
        corrupt_bytes(&mut tiny, ModelFault::NanWeight { index: 100 });
        assert_eq!(tiny, vec![0u8; 4]);
        let mut empty: Vec<u8> = Vec::new();
        corrupt_bytes(&mut empty, ModelFault::FlipByte { at: 5 });
        assert!(empty.is_empty());
    }

    #[test]
    fn maybe_panic_fires_only_on_target_task() {
        let _g = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        install(FaultPlan {
            panic_at_task: Some(7),
            ..FaultPlan::default()
        });
        maybe_panic(6); // no panic
        let caught = std::panic::catch_unwind(|| maybe_panic(7));
        clear();
        assert!(caught.is_err(), "task 7 must panic");
    }
}
