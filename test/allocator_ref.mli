(** The pre-optimization allocator, kept verbatim as a reference.

    Same decisions, old data layout: pure {!Edge_fabric.Projection.t}
    updates (load array copied per move), [placements_on] folding the
    whole placement trie per relief attempt, [List.find_opt] capacity
    lookups, [List.length]/[List.mem] budget and give-up bookkeeping. It
    lives beside the tests, not in the shipped library. Two uses:

    - the differential tests pin {!Edge_fabric.Allocator.run} to emit
      byte-identical overrides, residuals and trace records to this
      implementation on seeded worlds;
    - the E10d benchmarks measure the optimized cycle against this shape
      on the same snapshots, so the speedup claim has a live baseline.

    Do not optimize this module — its inefficiency is the point. *)

val run :
  config:Edge_fabric.Config.t ->
  ?trace:Ef_trace.Recorder.t ->
  Ef_collector.Snapshot.t ->
  Edge_fabric.Allocator.result
