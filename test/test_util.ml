(* ef_util: Rng, Zipf, Ewma, Units, Bitset *)

open Ef_util

let test_bitset_basics () =
  let s = Bitset.create 40 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 9;
  Bitset.add s 39;
  Bitset.add s 9;
  (* idempotent *)
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "ascending" [ 0; 9; 39 ] (Bitset.to_list s);
  Alcotest.(check bool) "mem" true (Bitset.mem s 9);
  Alcotest.(check bool) "out of universe absent" false (Bitset.mem s 40);
  Alcotest.(check bool) "negative absent" false (Bitset.mem s (-1));
  Bitset.remove s 9;
  Bitset.remove s 9;
  Alcotest.(check int) "removed once" 2 (Bitset.cardinal s);
  Bitset.set s 1 true;
  Bitset.set s 0 false;
  Alcotest.(check (list int)) "after set" [ 1; 39 ] (Bitset.to_list s);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add out of universe"
    (Invalid_argument "Bitset: id outside universe") (fun () -> Bitset.add s 8);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-1)));
  let empty = Bitset.create 0 in
  Alcotest.(check bool) "zero universe mem" false (Bitset.mem empty 0)

let test_bitset_iter_fold () =
  let s = Bitset.create 100 in
  List.iter (Bitset.add s) [ 3; 14; 15; 92 ];
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) s;
  Alcotest.(check (list int)) "iter ascending" [ 3; 14; 15; 92 ] (List.rev !seen);
  Alcotest.(check int) "fold sum" 124 (Bitset.fold (fun i acc -> i + acc) s 0)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_int_in_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_float_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of bounds: %f" v
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  (* drawing from the child must not affect the parent's future draws *)
  let parent_copy = Rng.copy parent in
  ignore (Rng.bits64 child);
  ignore (Rng.bits64 child);
  Alcotest.(check int64) "parent unaffected" (Rng.bits64 parent_copy)
    (Rng.bits64 parent)

let test_rng_chance_extremes () =
  let rng = Rng.create 11 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 4.0) > 0.2 then Alcotest.failf "mean %f too far from 4" mean

let test_rng_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian rng ~mu:2.0 ~sigma:3.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  if Float.abs (mean -. 2.0) > 0.15 then Alcotest.failf "mean %f" mean;
  if Float.abs (var -. 9.0) > 0.8 then Alcotest.failf "variance %f" var

let test_rng_poisson_mean () =
  let rng = Rng.create 19 in
  List.iter
    (fun lambda ->
      let n = 10_000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Rng.poisson rng ~lambda
      done;
      let mean = float_of_int !sum /. float_of_int n in
      if Float.abs (mean -. lambda) > (0.1 *. lambda) +. 0.1 then
        Alcotest.failf "poisson(%f) mean %f" lambda mean)
    [ 0.5; 3.0; 50.0 ]

let test_rng_poisson_zero () =
  let rng = Rng.create 21 in
  Alcotest.(check int) "lambda 0" 0 (Rng.poisson rng ~lambda:0.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 23 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 29 in
  let arr = Array.init 20 Fun.id in
  let sample = Rng.sample_without_replacement rng 8 arr in
  Alcotest.(check int) "size" 8 (Array.length sample);
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  Array.iteri
    (fun i v ->
      if i > 0 && sorted.(i - 1) = v then Alcotest.fail "duplicate in sample")
    sorted;
  let big = Rng.sample_without_replacement rng 100 arr in
  Alcotest.(check int) "capped at n" 20 (Array.length big)

let test_zipf_probabilities_sum () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let sum = Array.fold_left ( +. ) 0.0 (Zipf.weights z) in
  Helpers.check_float_eps 1e-9 "sums to 1" 1.0 sum

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~s:0.9 in
  for rank = 1 to 49 do
    if Zipf.probability z rank < Zipf.probability z (rank + 1) then
      Alcotest.failf "not monotone at %d" rank
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:1000 ~s:1.0 in
  let top10 = Zipf.top_share z 10 in
  Alcotest.(check bool) "top-10 of 1000 carries >25%" true (top10 > 0.25)

let test_zipf_sample_range () =
  let z = Zipf.create ~n:30 ~s:1.2 in
  let rng = Rng.create 31 in
  for _ = 1 to 5_000 do
    let r = Zipf.sample z rng in
    if r < 1 || r > 30 then Alcotest.failf "rank %d out of range" r
  done

let test_zipf_sample_distribution () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  let rng = Rng.create 37 in
  let counts = Array.make 11 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  let freq1 = float_of_int counts.(1) /. float_of_int n in
  if Float.abs (freq1 -. Zipf.probability z 1) > 0.02 then
    Alcotest.failf "rank-1 freq %f vs %f" freq1 (Zipf.probability z 1)

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.0))

let test_ewma_first_observation () =
  let e = Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "not initialized" false (Ewma.initialized e);
  Ewma.observe e 10.0;
  Helpers.check_float "first sets value" 10.0 (Ewma.value e)

let test_ewma_smoothing () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.observe e 10.0;
  Ewma.observe e 20.0;
  Helpers.check_float "half-way" 15.0 (Ewma.value e);
  Ewma.observe e 15.0;
  Helpers.check_float "converging" 15.0 (Ewma.value e)

let test_ewma_converges () =
  let e = Ewma.create ~alpha:0.3 in
  for _ = 1 to 100 do
    Ewma.observe e 42.0
  done;
  Helpers.check_float_eps 1e-6 "converged" 42.0 (Ewma.value e)

let test_ewma_alpha_validation () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha out of (0,1]")
    (fun () -> ignore (Ewma.create ~alpha:0.0))

let test_units_conversions () =
  Helpers.check_float "gbps" 10e9 (Units.gbps 10.0);
  Helpers.check_float "mbps" 5e6 (Units.mbps 5.0);
  Helpers.check_float "to_gbps" 2.5 (Units.to_gbps 2.5e9)

let test_units_pp_rate () =
  Alcotest.(check string) "gbps" "12.50 Gbps" (Units.rate_to_string 12.5e9);
  Alcotest.(check string) "mbps" "830.0 Mbps" (Units.rate_to_string 830e6);
  Alcotest.(check string) "bps" "12 bps" (Units.rate_to_string 12.0)

let test_units_time_of_day () =
  Alcotest.(check string) "21:30" "21:30"
    (Format.asprintf "%a" Units.pp_time_of_day ((21 * 3600) + (30 * 60)));
  Alcotest.(check string) "wraps" "01:00"
    (Format.asprintf "%a" Units.pp_time_of_day (25 * 3600))

let qcheck_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_pareto_min =
  QCheck.Test.make ~name:"pareto >= xmin" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      Rng.pareto rng ~alpha:1.3 ~xmin:2.0 >= 2.0)

(* --- Pool: the per-call fork-join behind Fleet.run ~jobs ------------------ *)

let test_pool_map_order () =
  (* results come back in input order, whatever the lane count *)
  let items = List.init 50 Fun.id in
  let expect = List.map (fun i -> i * i) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Pool.map ~jobs (fun i -> i * i) items))
    [ 1; 2; 4; 7 ]

let test_pool_jobs1_is_sequential () =
  (* jobs=1 never spawns a domain: side effects happen in list order on
     the calling domain, each inside the wrap hook on lane 0 *)
  let log = ref [] in
  let wrap ~lane task =
    log := Printf.sprintf "lane %d" lane :: !log;
    task ()
  in
  ignore
    (Pool.map ~wrap ~jobs:1
       (fun i ->
         log := string_of_int i :: !log;
         i)
       [ 1; 2; 3 ]);
  Alcotest.(check (list string))
    "list order" [ "lane 0"; "1"; "lane 0"; "2"; "lane 0"; "3" ] (List.rev !log)

let test_pool_exception () =
  (* an exception in a task surfaces to the caller; the lowest failing
     index wins when several fail, and every other task still ran *)
  let ran = Atomic.make 0 in
  (match
     Pool.map ~jobs:4
       (fun i ->
         Atomic.incr ran;
         if i mod 2 = 1 then failwith (string_of_int i) else i)
       (List.init 8 Fun.id)
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check string) "first failing index" "1" msg);
  Alcotest.(check int) "all tasks ran" 8 (Atomic.get ran)

let test_pool_empty_and_validation () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:3 Fun.id []);
  Alcotest.(check (list int)) "one item, many jobs" [ 5 ]
    (Pool.map ~jobs:8 Fun.id [ 5 ]);
  (* out-of-range values are rejected before anything runs *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d rejected" jobs)
        (Invalid_argument
           (Printf.sprintf "Pool.map: jobs %d not in [1, 128]" jobs))
        (fun () ->
          ignore (Pool.map ~jobs (fun _ -> Alcotest.fail "task ran") [ 1 ])))
    [ 0; -1; 129; max_int ]

let test_pool_nested_map () =
  (* a map issued from inside a task forks its own lanes; results stay
     correct and in order *)
  let outer =
    Pool.map ~jobs:2
      (fun i ->
        let inner = Pool.map ~jobs:2 (fun j -> j + i) [ 1; 2; 3 ] in
        List.fold_left ( + ) 0 inner)
      [ 10; 20; 30; 40 ]
  in
  Alcotest.(check (list int)) "nested totals" [ 36; 66; 96; 126 ] outer

let suite =
  [
    Alcotest.test_case "bitset basics" `Quick test_bitset_basics;
    Alcotest.test_case "bitset bounds" `Quick test_bitset_bounds;
    Alcotest.test_case "bitset iter/fold" `Quick test_bitset_iter_fold;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in bounds" `Quick test_rng_int_in_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng poisson mean" `Quick test_rng_poisson_mean;
    Alcotest.test_case "rng poisson zero" `Quick test_rng_poisson_zero;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng sample w/o replacement" `Quick
      test_rng_sample_without_replacement;
    Alcotest.test_case "zipf sums to one" `Quick test_zipf_probabilities_sum;
    Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
    Alcotest.test_case "zipf sample distribution" `Quick
      test_zipf_sample_distribution;
    Alcotest.test_case "zipf invalid n" `Quick test_zipf_invalid;
    Alcotest.test_case "ewma first observation" `Quick test_ewma_first_observation;
    Alcotest.test_case "ewma smoothing" `Quick test_ewma_smoothing;
    Alcotest.test_case "ewma converges" `Quick test_ewma_converges;
    Alcotest.test_case "ewma alpha validation" `Quick test_ewma_alpha_validation;
    Alcotest.test_case "units conversions" `Quick test_units_conversions;
    Alcotest.test_case "units pp_rate" `Quick test_units_pp_rate;
    Alcotest.test_case "units time of day" `Quick test_units_time_of_day;
    Alcotest.test_case "pool map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool jobs=1 sequential" `Quick
      test_pool_jobs1_is_sequential;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool empty + validation" `Quick
      test_pool_empty_and_validation;
    Alcotest.test_case "pool nested map no deadlock" `Quick
      test_pool_nested_map;
    QCheck_alcotest.to_alcotest qcheck_int_bounds;
    QCheck_alcotest.to_alcotest qcheck_pareto_min;
  ]
