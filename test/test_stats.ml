(* ef_stats: Cdf, Table *)

open Ef_stats

let test_cdf_quantiles () =
  let c = Cdf.of_samples [ 4.0; 1.0; 3.0; 2.0 ] in
  Helpers.check_float "min" 1.0 (Cdf.quantile c 0.0);
  Helpers.check_float "max" 4.0 (Cdf.quantile c 1.0);
  Helpers.check_float "median interpolates" 2.5 (Cdf.median c)

let test_cdf_fraction_below () =
  let c = Cdf.of_samples [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Helpers.check_float "below 3" 0.6 (Cdf.fraction_below c 3.0);
  Helpers.check_float "below 0" 0.0 (Cdf.fraction_below c 0.0);
  Helpers.check_float "below 10" 1.0 (Cdf.fraction_below c 10.0);
  Helpers.check_float "at least 4" 0.4 (Cdf.fraction_at_least c 4.0)

let test_cdf_single_sample () =
  let c = Cdf.of_samples [ 7.0 ] in
  Helpers.check_float "quantile" 7.0 (Cdf.quantile c 0.3);
  Helpers.check_float "below" 1.0 (Cdf.fraction_below c 7.0)

let test_cdf_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Cdf.of_array: empty") (fun () ->
      ignore (Cdf.of_samples []))

let test_cdf_series_monotone () =
  let c = Cdf.of_samples (List.init 100 (fun i -> float_of_int (i * i))) in
  let series = Cdf.series c ~points:11 in
  Alcotest.(check int) "points" 11 (List.length series);
  let rec check = function
    | (x1, q1) :: ((x2, q2) :: _ as rest) ->
        if x2 < x1 || q2 < q1 then Alcotest.fail "series not monotone";
        check rest
    | [ _ ] | [] -> ()
  in
  check series

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 4 = "name");
  Alcotest.(check int) "row count" 2 (Table.row_count t)

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  Alcotest.(check int) "row accepted" 1 (Table.row_count t)

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_rowf () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_rowf t "%d\t%.1f" 42 3.5;
  Alcotest.(check int) "row added" 1 (Table.row_count t);
  let rendered = Table.render t in
  Alcotest.(check bool) "contains 42" true
    (Helpers.string_contains ~needle:"42" rendered);
  Alcotest.(check bool) "contains 3.5" true
    (Helpers.string_contains ~needle:"3.5" rendered)

let qcheck_cdf_quantile_monotone =
  QCheck.Test.make ~name:"cdf quantile monotone" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
              (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (samples, (q1, q2)) ->
      QCheck.assume (samples <> []);
      let c = Cdf.of_samples samples in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Cdf.quantile c lo <= Cdf.quantile c hi +. 1e-9)

(* --- NaN rejection: a NaN poisons sorts silently, so every ingestion
   point refuses it loudly -------------------------------------------- *)

let test_nan_rejected_everywhere () =
  Alcotest.check_raises "cdf of_array"
    (Invalid_argument "Cdf.of_array: NaN sample") (fun () ->
      ignore (Cdf.of_array [| 1.0; Float.nan; 2.0 |]));
  Alcotest.check_raises "cdf of_samples"
    (Invalid_argument "Cdf.of_array: NaN sample") (fun () ->
      ignore (Cdf.of_samples [ Float.nan ]));
  (* infinities are ordered, not poisonous: still accepted *)
  let cdf = Cdf.of_array [| Float.infinity; 1.0 |] in
  Alcotest.(check (float 0.0)) "infinity sorts last" Float.infinity (Cdf.max cdf)

let suite =
  [
    Alcotest.test_case "cdf quantiles" `Quick test_cdf_quantiles;
    Alcotest.test_case "cdf fraction below" `Quick test_cdf_fraction_below;
    Alcotest.test_case "cdf single sample" `Quick test_cdf_single_sample;
    Alcotest.test_case "cdf empty rejected" `Quick test_cdf_empty_rejected;
    Alcotest.test_case "cdf series monotone" `Quick test_cdf_series_monotone;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    Alcotest.test_case "table rejects long rows" `Quick test_table_rejects_long_rows;
    Alcotest.test_case "table rowf" `Quick test_table_rowf;
    Alcotest.test_case "nan rejected everywhere" `Quick
      test_nan_rejected_everywhere;
    QCheck_alcotest.to_alcotest qcheck_cdf_quantile_monotone;
  ]
