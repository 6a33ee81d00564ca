(** Ef_health: the controller watching itself.

    Three pillars on top of {!Ef_obs}: {!Profiler} (span/GC profiling
    with Chrome trace-event export), {!Slo} (cycle-deadline budgets,
    rolling-window burn rate, the Healthy/Degraded/Broken state machine)
    and {!Alert} (a deterministic, edge-triggered rule DSL). {!Tracker}
    composes the last two behind one per-cycle observation call; drivers
    take a tracker when they are created ({!Tracker.noop} by default) so
    health tracking costs nothing unless switched on. See [DESIGN.md]
    §14. *)

module Profiler = Profiler
module Slo = Slo
module Alert = Alert
module Tracker = Tracker
