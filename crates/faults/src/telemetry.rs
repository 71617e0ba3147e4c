//! Fault-injection and recovery telemetry, following the workspace
//! conventions in `docs/observability.md`: every injected fault and
//! every recovery decision is counted in the registry and traced as a
//! `fault.*` / `recovery.*` event.

use crate::plan::FaultKind;
use gvc_telemetry::timeline::series;
use gvc_telemetry::{Counter, Histogram, Registry, TimelineHandle, Tracer};
use std::sync::Arc;

/// Fault/recovery metrics, shared with a [`Registry`]. One instance
/// per run; attach wherever the injector and recovery policy act.
#[derive(Clone)]
pub struct FaultTelemetry {
    /// `fault_injected_total{kind=...}`, one counter per fault kind.
    injected: [Arc<Counter>; 5],
    /// `recovery_retries_total`: establishment attempts retried.
    pub retries: Arc<Counter>,
    /// `fallback_ip_total`: sessions that gave up on a circuit and
    /// ran over the routed IP path.
    pub fallback_ip: Arc<Counter>,
    /// `recovery_latency_seconds`: first attempt to final outcome
    /// (success or fallback), per session.
    pub recovery_latency: Arc<Histogram>,
    /// Trace handle for `fault.*` / `recovery.*` events.
    pub tracer: Tracer,
    /// Sim-time flight recorder feeding the `fault.injected` windowed
    /// series (`None` unless [`FaultTelemetry::with_timeline`]
    /// attached one).
    pub timeline: Option<TimelineHandle>,
}

const KINDS: [FaultKind; 5] = [
    FaultKind::SignallingFailure,
    FaultKind::SetupTimeout,
    FaultKind::Preemption,
    FaultKind::LinkFlap,
    FaultKind::ServerRestart,
];

impl FaultTelemetry {
    /// Registers the fault metrics in `registry`, tracing into
    /// `tracer`.
    pub fn register(registry: &Registry, tracer: Tracer) -> FaultTelemetry {
        registry.describe("fault_injected_total", "Injected faults, by kind");
        registry.describe("recovery_retries_total", "Circuit establishment attempts retried");
        registry
            .describe("fallback_ip_total", "Sessions that gave up on a circuit and ran over IP");
        registry.describe(
            "recovery_latency_seconds",
            "First establishment attempt to final outcome, per session",
        );
        let counter =
            |kind: FaultKind| registry.counter("fault_injected_total", &[("kind", kind.as_str())]);
        FaultTelemetry {
            injected: KINDS.map(counter),
            retries: registry.counter("recovery_retries_total", &[]),
            fallback_ip: registry.counter("fallback_ip_total", &[]),
            recovery_latency: registry.histogram(
                "recovery_latency_seconds",
                &[],
                Histogram::timing,
            ),
            tracer,
            timeline: None,
        }
    }

    /// Attaches a sim-time flight recorder for windowed injection
    /// counts.
    #[must_use]
    pub fn with_timeline(mut self, timeline: Option<TimelineHandle>) -> FaultTelemetry {
        self.timeline = timeline;
        self
    }

    /// A disconnected instance (private registry, tracing off) for
    /// callers that run without telemetry.
    pub fn disabled() -> FaultTelemetry {
        FaultTelemetry::register(&Registry::new(), Tracer::disabled())
    }

    /// Counts one injected fault of `kind`.
    pub fn count_injected(&self, kind: FaultKind) {
        for (i, k) in KINDS.iter().enumerate() {
            if *k == kind {
                self.injected[i].inc();
            }
        }
    }

    /// Counts one injected fault of `kind` at sim time `t_us`, adding
    /// it to the `fault.injected` timeline window as well.
    pub fn count_injected_at(&self, kind: FaultKind, t_us: u64) {
        self.count_injected(kind);
        if let Some(tl) = &self.timeline {
            tl.add(series::FAULT_INJECTED, t_us, 1.0);
        }
    }

    /// Current count for one fault kind (test/report convenience).
    pub fn injected_count(&self, kind: FaultKind) -> u64 {
        KINDS.iter().position(|k| *k == kind).map_or(0, |i| self.injected[i].get())
    }

    /// Total injected faults across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_route_by_kind() {
        let registry = Registry::new();
        let t = FaultTelemetry::register(&registry, Tracer::disabled());
        t.count_injected(FaultKind::SignallingFailure);
        t.count_injected(FaultKind::SignallingFailure);
        t.count_injected(FaultKind::Preemption);
        assert_eq!(t.injected_count(FaultKind::SignallingFailure), 2);
        assert_eq!(t.injected_count(FaultKind::Preemption), 1);
        assert_eq!(t.injected_count(FaultKind::LinkFlap), 0);
        assert_eq!(t.injected_total(), 3);
        let text = registry.render();
        assert!(text.contains("fault_injected_total{kind=\"signalling_failure\"} 2"));
        assert!(text.contains("fault_injected_total{kind=\"preemption\"} 1"));
    }

    #[test]
    fn disabled_instance_is_inert_but_usable() {
        let t = FaultTelemetry::disabled();
        t.count_injected(FaultKind::ServerRestart);
        t.retries.inc();
        t.fallback_ip.inc();
        t.recovery_latency.record(1.5);
        assert_eq!(t.injected_total(), 1);
        assert!(!t.tracer.enabled());
    }
}
