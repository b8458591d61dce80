//! Observability substrate for the NewsWire reproduction.
//!
//! Every experiment table in the paper is quantitative, and every chaos or
//! partition run that misbehaves needs a story better than `println!`. This
//! crate provides the three pieces the whole stack shares:
//!
//! 1. **Sim-time structured tracing** ([`trace_event!`]): compact 32-byte
//!    binary records pushed into a per-[`TelemetryHub`] ring buffer
//!    ([`TraceRing`], drop-oldest on overflow). Records carry the simulated
//!    timestamp, node, layer, kind and two 64-bit operands; paired kinds
//!    (publish→deliver, hand-off arm→ack) reconstruct spans via
//!    [`Telemetry::pair_spans`].
//! 2. **A per-node metrics registry** ([`MetricSet`] slots declared in
//!    [`Schema`]): typed counters/gauges/histograms/series with fixed-slot
//!    registration, so the hot path is an array index. The simulator's
//!    traffic and fault counters are stored here and the legacy structs are
//!    reconstructed as views.
//! 3. **Deterministic telemetry export** ([`Telemetry`]): a JSON/CSV
//!    snapshot with stable ordering and integer-only values, so same-seed
//!    runs drain byte-identical telemetry (CI enforces this).
//!
//! # Zero cost when disabled
//!
//! Everything routed through the macros and the thread-local collector is
//! gated behind the default-on `obs` cargo feature. With the feature off,
//! [`ENABLED`] is `false` at compile time: macro bodies are dead code, their
//! arguments are never evaluated, and the optimizer removes the call sites
//! entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod trace;

pub use export::{NodeMetrics, SeriesStats, Span, Telemetry};
pub use hub::TelemetryHub;
pub use metrics::{ctr, gauge, hist, series, CtrId, GaugeId, HistId, MetricSet, Schema, SeriesId};
pub use trace::{kind, Layer, TraceEvent, TraceRing};

/// Compile-time switch for all macro-driven instrumentation.
///
/// `true` iff the `obs` cargo feature is enabled. The macros below test this
/// constant first, so with the feature off their bodies (including argument
/// evaluation) are eliminated at compile time.
pub const ENABLED: bool = cfg!(feature = "obs");

/// Emits one structured trace record into the currently installed hub.
///
/// `trace_event!(node, layer, kind)`, with optional `a` and `b` operand
/// expressions (converted `as u64`). A no-op that never evaluates its
/// arguments when the `obs` feature is off, and when no hub is installed
/// (i.e. outside a simulation callback).
///
/// ```
/// use obs::{trace_event, Layer, kind};
/// trace_event!(3, Layer::News, kind::NW_PUBLISH, 17u64);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($node:expr, $layer:expr, $kind:expr) => {
        $crate::trace_event!($node, $layer, $kind, 0u64, 0u64)
    };
    ($node:expr, $layer:expr, $kind:expr, $a:expr) => {
        $crate::trace_event!($node, $layer, $kind, $a, 0u64)
    };
    ($node:expr, $layer:expr, $kind:expr, $a:expr, $b:expr) => {
        if $crate::ENABLED {
            $crate::collector::emit(($node) as u32, $layer, $kind, ($a) as u64, ($b) as u64);
        }
    };
}

/// Adds `v` to a per-node counter slot in the currently installed hub.
///
/// A no-op (arguments unevaluated) when the `obs` feature is off.
#[macro_export]
macro_rules! metric_add {
    ($node:expr, $id:expr, $v:expr) => {
        if $crate::ENABLED {
            $crate::collector::counter_add(($node) as u32, $id, ($v) as u64);
        }
    };
}

/// Raises a per-node gauge slot to `v` if `v` is larger (high-water mark).
/// Gauges are high-water marks only: multi-shard runs merge them by maximum,
/// so a gauge that could fall would read differently per shard count.
#[macro_export]
macro_rules! gauge_max {
    ($node:expr, $id:expr, $v:expr) => {
        if $crate::ENABLED {
            $crate::collector::gauge_max(($node) as u32, $id, ($v) as u64);
        }
    };
}

/// Records `v` into a per-node histogram slot in the currently installed hub.
#[macro_export]
macro_rules! hist_record {
    ($node:expr, $id:expr, $v:expr) => {
        if $crate::ENABLED {
            $crate::collector::hist_record(($node) as u32, $id, ($v) as u64);
        }
    };
}

/// Appends a raw sample to a per-node series slot (exact-quantile data).
#[macro_export]
macro_rules! series_record {
    ($node:expr, $id:expr, $v:expr) => {
        if $crate::ENABLED {
            $crate::collector::series_record(($node) as u32, $id, ($v) as u64);
        }
    };
}
