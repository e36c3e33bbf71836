(* Golden tests over the shipped example programs (examples/*.dbpl).

   Each positive example runs through the full front end
   ([Elaborate.run_string], the same path `dbpl run` takes) and its
   output is compared byte for byte against a checked-in .expected
   transcript — so surface syntax, admission, evaluation, and the
   printer all have to agree with what the documentation shows.  The
   aggregate examples (PR 10) cover the admissible shapes: recursive
   MIN with per-group bounds, recursion-below-SUM stratification, an
   aggregate stratum feeding positive recursion, and stratified COUNT
   with a discriminator column.

   Every positive example also runs statement by statement through a
   server session ([Server.execute_program], the path `dbpl serve`
   takes, reads on published snapshots), and that transcript must be
   byte-identical to the [Elaborate.run_string] one: the REPL's and the
   server's reads share one planned path and must not drift apart.

   nonmonotone.dbpl is the negative example: it must be REJECTED at
   declaration with the positivity error the file's header documents. *)

module Database = Dc_core.Database

let find base =
  let candidates =
    [
      Filename.concat "../examples" base;
      Filename.concat "examples" base;
      Filename.concat "../../examples" base;
      Filename.concat "../../../examples" base;
      Filename.concat "/root/repo/examples" base;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" base

let find_expected base =
  let candidates =
    [ base; Filename.concat "test" base; Filename.concat "../test" base ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" base

let read path = In_channel.with_open_text path In_channel.input_all

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let golden example () =
  let src = read (find (example ^ ".dbpl")) in
  let expected = read (find_expected ("example_" ^ example ^ ".expected")) in
  let _, out = Dc_lang.Elaborate.run_string src in
  Alcotest.(check string) (example ^ ".dbpl transcript") expected out

let session_transcript src =
  let srv = Dc_server.Server.create (Database.create ()) in
  let s = Dc_server.Server.open_session srv in
  Fun.protect
    ~finally:(fun () ->
      Dc_server.Server.close_session s;
      Dc_server.Server.shutdown srv)
    (fun () -> Dc_server.Server.execute_program s (Dc_lang.Parser.parse src))

let served_equals_run example () =
  let src = read (find (example ^ ".dbpl")) in
  let _, out = Dc_lang.Elaborate.run_string src in
  Alcotest.(check string)
    (example ^ ".dbpl: session transcript = run transcript")
    out (session_transcript src)

let test_nonmonotone_rejected () =
  let src = read (find "nonmonotone.dbpl") in
  match Dc_lang.Elaborate.run_string src with
  | _ -> Alcotest.fail "nonmonotone.dbpl was admitted"
  | exception Database.Error msg ->
    Alcotest.(check bool)
      "positivity error names the odd NOT depth" true
      (contains msg "NOT/ALL" && contains msg "nonsense")

let () =
  Alcotest.run "dc_examples"
    [
      ( "golden",
        [
          Alcotest.test_case "shortest_path (recursive MIN)" `Quick
            (golden "shortest_path");
          Alcotest.test_case "bom_rollup (stratified SUM)" `Quick
            (golden "bom_rollup");
          Alcotest.test_case "company_control (SUM below recursion)" `Quick
            (golden "company_control");
          Alcotest.test_case "frequent_paths (COUNT + discriminator)" `Quick
            (golden "frequent_paths");
        ] );
      ( "served",
        List.map
          (fun ex -> Alcotest.test_case ex `Quick (served_equals_run ex))
          [
            "shortest_path"; "bom_rollup"; "company_control"; "frequent_paths";
            "same_generation"; "cad_scene"; "paper_walkthrough";
          ] );
      ( "rejection",
        [
          Alcotest.test_case "nonmonotone.dbpl rejected" `Quick
            test_nonmonotone_rejected;
        ] );
    ]
