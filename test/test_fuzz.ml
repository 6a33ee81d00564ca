(* Seeded mutation fuzz of the text and JSON decoders.

   Each decoder gets valid inputs (the shipped fault plan and policy
   programs, a recorded trace block) mangled by truncation, bit flips,
   digit/punctuation swaps and spliced oversized numbers. Whatever the
   bytes, a decoder must answer [Ok] or [Error], never raise. The Rng
   seed is fixed, so a failure reproduces, and its message carries the
   offending input. *)

module N = Ef_netsim
module C = Ef_collector
module Rng = Ef_util.Rng

(* mutations per decoder, split evenly across its seed inputs *)
let mutations = 5_000

(* ../examples relative to the dune test sandbox, examples/ relative to
   the repo root *)
let examples_dir =
  lazy
    (match List.find_opt Sys.file_exists [ "../examples"; "examples" ] with
    | Some dir -> dir
    | None -> Alcotest.fail "examples/ not found")

let example rel =
  In_channel.with_open_bin
    (Filename.concat (Lazy.force examples_dir) rel)
    In_channel.input_all

let chaos_json = lazy (example "faults/chaos.json")

let policy_jsons =
  lazy
    (Sys.readdir (Filename.concat (Lazy.force examples_dir) "policies")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> example ("policies/" ^ f)))

(* two snapshots of the tiny world, recorded as one multi-block trace *)
let trace_text =
  lazy
    (let w = N.Topo_gen.generate N.Scenario.tiny.N.Scenario.topo in
     let rates =
       List.filteri
         (fun i _ -> i < 4)
         (List.map
            (fun p ->
              (p, w.N.Topo_gen.prefix_weight p *. w.N.Topo_gen.total_peak_bps))
            w.N.Topo_gen.all_prefixes)
     in
     C.Trace.record_many
       (List.map
          (fun time_s ->
            C.Snapshot.of_pop
              ~obs:(Ef_obs.Registry.create ())
              w.N.Topo_gen.pop ~prefix_rates:rates ~time_s)
          [ 100; 200 ]))

let swap_chars = "0123456789{}[]:,\"-.eE+ =/#\n"

let oversized =
  [|
    "99999999999999999999999999";
    "-99999999999999999999999999";
    "1e999";
    "-1e-999";
    "4611686018427387904";
    "0x7fffffffffffffffff";
    "340282366920938463463374607431768211456";
    "1.7976931348623157e309";
  |]

let mutate_once rng s =
  let n = String.length s in
  match Rng.int rng 4 with
  | 0 -> String.sub s 0 (Rng.int rng (n + 1))
  | _ when n = 0 -> s
  | 1 ->
      let b = Bytes.of_string s in
      for _ = 1 to 1 + Rng.int rng 3 do
        let i = Rng.int rng n in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)))
      done;
      Bytes.to_string b
  | 2 ->
      let b = Bytes.of_string s in
      for _ = 1 to 1 + Rng.int rng 3 do
        Bytes.set b (Rng.int rng n)
          swap_chars.[Rng.int rng (String.length swap_chars)]
      done;
      Bytes.to_string b
  | _ ->
      (* replace a run of digits (or splice in at a random spot) *)
      let i = Rng.int rng n in
      let j = ref i in
      while !j < n && String.contains "0123456789.-" s.[!j] do
        incr j
      done;
      String.sub s 0 i
      ^ oversized.(Rng.int rng (Array.length oversized))
      ^ String.sub s !j (n - !j)

(* one to three stacked mutations *)
let mutate rng s =
  let rec go k s = if k = 0 then s else go (k - 1) (mutate_once rng s) in
  go (1 + Rng.int rng 3) s

let fuzz ~name ~seeds decode () =
  let rng = Rng.create 20 in
  let seeds = Lazy.force seeds in
  List.iter
    (fun seed ->
      (* the unmutated seed decodes *)
      (match decode seed with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s rejects its seed input: %s" name msg);
      for k = 1 to mutations / List.length seeds do
        let input = mutate rng seed in
        match decode input with
        | Ok () | Error _ -> ()
        | exception e ->
            Alcotest.failf "%s raised %s on mutation %d: %S" name
              (Printexc.to_string e) k input
      done)
    seeds

let ignore_ok f s = Result.map ignore (f s)

let suite =
  [
    Alcotest.test_case "json parse never raises" `Quick
      (fuzz ~name:"Ef_obs.Json.parse"
         ~seeds:(lazy (Lazy.force chaos_json :: Lazy.force policy_jsons))
         (ignore_ok Ef_obs.Json.parse));
    Alcotest.test_case "trace parse_many never raises" `Quick
      (fuzz ~name:"Trace.parse_many"
         ~seeds:(lazy [ Lazy.force trace_text ])
         (ignore_ok C.Trace.parse_many));
    Alcotest.test_case "fault plan of_string never raises" `Quick
      (fuzz ~name:"Plan.of_string"
         ~seeds:(lazy [ Lazy.force chaos_json ])
         (ignore_ok Ef_fault.Plan.of_string));
    Alcotest.test_case "policy codec of_string never raises" `Quick
      (fuzz ~name:"Codec.of_string" ~seeds:policy_jsons
         (ignore_ok Ef_policy.Codec.of_string));
  ]
