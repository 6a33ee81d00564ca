(** Per-call fork-join over OCaml 5 domains.

    [map ~jobs f items] spawns [min jobs n - 1] domains for the [n]
    items; the calling domain is the remaining lane, so at most [jobs]
    tasks run at once. Every lane takes the next item index from one
    shared atomic counter, and [map] joins every spawned domain before
    it returns: no domain outlives the call. At [jobs = 1] nothing is
    spawned and [map] is [List.map] on the calling domain.

    Results are collected by item index, so [map] always returns them in
    the order of [items], whatever order the lanes finished in —
    parallelism can never reorder (and therefore never change) a
    deterministic computation's output. *)

type wrap = lane:int -> (unit -> unit) -> unit
(** Execution hook: called for every task with the lane that runs it
    (0 = the calling domain, 1..jobs-1 = spawned domains) and the task
    itself, which it must run exactly once before returning. The hook is
    how callers attribute per-lane time (e.g. wrap each task in a
    profiler span) without this module depending on the telemetry
    stack. The default just runs the task. *)

val map : ?wrap:wrap -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every item, up to [jobs] at a time, and return the
    results in input order. Each spawned domain first enlarges its own
    minor heap (4M words, ~32 MB) and sets [space_overhead = 200]: a
    per-PoP simulation task's garbage is mostly short-lived scratch that
    a big nursery reclaims for free.

    At [jobs > 1], if any task raised, the remaining tasks still run,
    every domain is joined, and the exception of the lowest-indexed
    failed task is re-raised. At [jobs = 1] the first exception
    propagates at once, as from [List.map]. A [map] called from inside
    a task forks its own domains; once the runtime's domain limit is
    reached, the lanes already spawned finish the work. Raises
    [Invalid_argument] if [jobs < 1] or [jobs > 128], before any domain
    is spawned. *)
