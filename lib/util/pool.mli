(** A fixed-size work pool over OCaml 5 domains.

    [create ~jobs] spawns [jobs - 1] worker domains; the caller domain is
    the remaining lane, so a pool of [jobs] runs at most [jobs] tasks at
    once without oversubscribing. A pool of size 1 spawns nothing and
    {!map} degenerates to [List.map] on the calling domain — the
    sequential path, byte-identical to not having a pool at all.

    Workers are long-lived: they spawn at {!create} and persist until
    {!shutdown}, so a pool can (and should) be reused across many {!map}
    calls — repeated [Fleet.run]s and bench iterations share the same
    domains instead of paying a spawn/join per call. {!global} provides the process-wide instance
    most steady-state callers want.

    Results are collected by submission index: [map pool f items] always
    returns results in the order of [items], whatever order the workers
    finished in, so parallelism can never reorder (and therefore never
    change) a deterministic computation's output. *)

type task = unit -> unit

type wrap = lane:int -> task -> unit
(** Execution hook: called for every task with the lane that runs it
    (0 = the calling domain, 1..jobs-1 = spawned workers) and the task
    itself, which it must run exactly once (before returning). The hook
    is how callers attribute per-domain/per-lane time (e.g. wrap each
    task in a profiler span) without this module depending on the
    telemetry stack. The default just runs the task. *)

type gc_tune = { minor_heap_words : int; space_overhead : int }
(** Per-domain GC tuning applied inside each worker domain at birth. In
    OCaml 5 the minor heap is per-domain, so sizing it from within the
    worker is the only way to give workers a bigger nursery than the
    main domain's default. *)

val default_gc_tune : gc_tune
(** 4M words (~32 MB on 64-bit) minor heap, [space_overhead = 200] —
    sized for allocation-heavy per-PoP simulation tasks, where most
    garbage is short-lived scratch that a big nursery reclaims for
    free. *)

type t

val create : ?gc:gc_tune option -> ?wrap:wrap -> jobs:int -> unit -> t
(** [gc] defaults to [Some default_gc_tune]; pass [~gc:None] to leave
    worker domains at stock GC settings. [wrap] is the pool's default
    per-task hook, overridable per {!map} call. Raises
    [Invalid_argument] if [jobs < 1] or [jobs > 128]. *)

val jobs : t -> int

val map : ?wrap:wrap -> t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every item, up to [jobs] at a time (the caller works too),
    and return the results in submission order. If any task raised, the
    remaining tasks still run to completion, then the exception of the
    lowest-indexed failed task is re-raised on the calling domain — the
    pool stays usable afterwards.

    Nested calls are safe but sequential: a [map] invoked from inside a
    pool task (any pool's) runs [f] sequentially on the calling lane
    instead of deadlocking the lanes against each other; the wrap hook
    is skipped on that fallback path. One non-nested [map]
    may be in flight at a time per pool. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool must not be used
    afterwards. *)

val with_pool : ?wrap:wrap -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] — create, run [f], and shut down even if [f]
    raises. Prefer {!global} in steady-state code paths; [with_pool]
    pays a domain spawn/join per call. *)

val global : ?gc:gc_tune option -> jobs:int -> unit -> t
(** [global ~jobs ()] returns the process-wide shared pool, creating it
    on first use. A live global pool of the same size is returned as-is
    (its workers persist across calls); a size change shuts the old pool
    down and spawns a fresh one. Do not call from inside a pool task,
    and do not {!shutdown} the returned pool directly — use
    {!shutdown_global}. *)

val shutdown_global : unit -> unit
(** Shut down and forget the global pool, if any. The next {!global}
    call respawns it. *)
