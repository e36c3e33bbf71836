(* Served-statement benchmark.

   End-to-end mode (--trace 0) spawns `dbpl serve --listen` as a separate
   process, loads the workload over the wire protocol from this process,
   and drives it with one connection in a closed loop with zero think
   time.  Timings are client-observed: request frame sent to response
   decoded.  Every statement's result is checked against a reference
   built in this process from the same seed.

   Trace mode (--trace 1) first repeats the end-to-end run to get the
   untraced mean latency per statement kind, then replays the same
   seeded statement stream in process, through each layer's public entry
   point, timing every call.  See README.md for the metric definitions. *)

open Dc_relation
module Wire = Dc_net.Wire
module Client = Dc_net.Net.Client
module Server = Dc_server.Server
module Elaborate = Dc_lang.Elaborate
module Obs = Dc_obs.Obs

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let fail fmt = Fmt.kstr (fun s -> prerr_endline ("servbench: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Statement kinds and workloads                                       *)

type kind = Read | Scan | Delete | Insert | Reweight

let kind_name = function
  | Read -> "read"
  | Scan -> "scan"
  | Delete -> "delete"
  | Insert -> "insert"
  | Reweight -> "reweight"

let all_kinds = [ Read; Scan; Delete; Insert; Reweight ]

(* Every workload reports the same metric names: the query latency covers
   its QUERY kind (point read or scan), and its writes show in the cycle
   latency.  The per-kind figures are printed as context. *)
let is_query = function Read | Scan -> true | Delete | Insert | Reweight -> false

type stmt = {
  kind : kind;
  req : Wire.request;
  expect : Tuple.t list;  (** sorted rows a read must return *)
  records : (string * Tuple.t list * Tuple.t list) list list;
      (** the WAL records a write commits, one per statement in [req] *)
  check_views : bool;  (** compare both view extents after this write *)
  toggled : bool;  (** the Road chord's weight is raised after this write *)
}

type workload = {
  durable : bool;
  setup : string list;  (** requests that load the schema and data *)
  cycle : int -> stmt list;
      (** cycle [i] of the seeded statement stream; a whole cycle leaves
          every extent as it found it *)
  extents : string list;
      (** full-extent queries whose cardinality must be the same at the
          start and the end of a run *)
  views : toggled:bool -> (string * Tuple.t list) list;
      (** full view queries and their reference extents *)
}

let str s = Value.Str s
let node i = Fmt.str "n%d" i
let pair a b = Tuple.make2 (str a) (str b)
let sorted l = List.sort Tuple.compare l

let query_stmt kind src expect =
  {
    kind;
    req = Wire.Query src;
    expect;
    records = [];
    check_views = false;
    toggled = false;
  }

let edge_types =
  {|TYPE node = STRING;
TYPE edgerel = RELATION a, b OF RECORD a, b: node END;
VAR Edge: edgerel;
|}

(* right-linear transitive closure *)
let tc_decl =
  {|CONSTRUCTOR tc FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <e.a, p.b> OF EACH e IN Rel, EACH p IN Rel{tc()}: e.b = p.a
END tc;
|}

(* nonlinear transitive closure: both operands recursive *)
let tcn_decl =
  {|CONSTRUCTOR tcn FOR Rel: edgerel (): edgerel;
BEGIN EACH e IN Rel: TRUE,
      <p.a, q.b> OF EACH p IN Rel{tcn()}, EACH q IN Rel{tcn()}: p.b = q.a
END tcn;
|}

let road_decls =
  {|TYPE wedge = RELATION src, dst OF RECORD src, dst: STRING; w: INTEGER END;
VAR Road: wedge;
CONSTRUCTOR shortest FOR Rel: wedge (): wedge;
BEGIN EACH e IN Rel: TRUE,
      <p.src, e.dst, MIN (p.w + e.w)>
        OF EACH p IN Rel{shortest}, EACH e IN Rel:
        p.dst = e.src
        GROUP BY p.src, e.dst
END shortest;
|}

let insert_edges rel pairs =
  Fmt.str "INSERT %s VALUES %s;" rel
    (String.concat ", " (List.map (fun (a, b) -> Fmt.str "(%S, %S)" a b) pairs))

let point_read a = Fmt.str {|QUERY {EACH p IN Edge{tc()}: p.a = %S};|} a

let cycle_rng seed i = Random.State.make [| seed; i |]

(* A read-only cycle is four queries, so that its time, like an
   update_views cycle's, spans several statements. *)
let reads_per_cycle = 4

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* reach_point: a restricted read of a right-linear closure over a chain.
   The served path builds the whole closure (n(n+1)/2 tuples) to return
   the ~n/2 rows of one suffix, so a planner that pushes the restriction
   into the recursion moves this workload and no other.  A 160-edge chain
   (a 5 MB heap) varied about three times as much from run to run. *)
let reach_point seed =
  let n = 64 in
  let edges = List.init n (fun i -> (node i, node (i + 1))) in
  let suffix k = List.init (n - k) (fun j -> pair (node k) (node (k + 1 + j))) in
  {
    durable = false;
    setup = [ edge_types ^ tc_decl; insert_edges "Edge" edges ];
    cycle =
      (fun i ->
        let rng = cycle_rng seed i in
        List.init reads_per_cycle (fun _ ->
            let k = Random.State.int rng n in
            query_stmt Read (point_read (node k)) (sorted (suffix k))));
    extents = [ "QUERY Edge;"; "QUERY Edge{tc()};" ];
    views = (fun ~toggled:_ -> []);
  }

(* closure_scan: the full extent of a nonlinear closure over a chain whose
   node labels and insertion order come from the seed.  Nothing can be
   pushed into the recursion, so a restriction-pushing change must not
   move it; per-derivation cost and large responses dominate. *)
let closure_scan seed =
  let n = 64 in
  let rng = Random.State.make [| seed |] in
  let label = shuffle rng (Array.init (n + 1) Fun.id) in
  let lab i = node label.(i) in
  let edges =
    Array.to_list (shuffle rng (Array.init n (fun i -> (lab i, lab (i + 1)))))
  in
  let all_pairs =
    sorted
      (List.concat
         (List.init n (fun i ->
              List.init (n - i) (fun j -> pair (lab i) (lab (i + 1 + j))))))
  in
  {
    durable = false;
    setup = [ edge_types ^ tcn_decl; insert_edges "Edge" edges ];
    cycle =
      (fun _ ->
        List.init reads_per_cycle (fun _ -> query_stmt Scan "QUERY Edge{tcn()};" all_pairs));
    extents = [ "QUERY Edge;" ];
    views = (fun ~toggled:_ -> []);
  }

(* Reference extents: a fresh in-process evaluation of the same base
   relations, with no maintained view involved. *)
let reference_extents program ranges =
  let db, _ = Elaborate.run_string program in
  List.map
    (fun (rel, con) ->
      let r =
        Dc_core.Database.query db
          (Dc_calculus.Ast.Construct (Dc_calculus.Ast.Rel rel, con, []))
      in
      sorted (Relation.to_list r))
    ranges

(* update_views: a ring with chords, stored as Edge (a DRed-maintained
   closure) and as weighted Road (a recursive MIN view, recomputed per
   write).  Each half-cycle reads the closure view, deletes and
   reinserts one ring edge, and raises (first half) or restores (second
   half) one chord's weight, so a whole cycle is extent-neutral. *)
let update_views seed =
  let n = 64 and chords = 32 and reads = 4 in
  let rng = Random.State.make [| seed |] in
  (* The graph has the same shape for every seed; the seed draws the node
     labels, the reweighted chord, the delete order and the read nodes.
     Chord j jumps from node 2j to node 2j+16, so every even node has one
     chord in and one out, and every odd node only its two ring edges.
     Only ring edges out of odd nodes are deleted: each delete removes
     exactly that node's 64-tuple row of the closure and each reinsert
     restores it.  Ring edges weigh 6 and chords 3.  Every statement of
     a kind then costs about the same, whatever the seed; with seeded
     chord lengths and weights, the reweight and reinsert costs moved by
     up to a quarter from seed to seed. *)
  let label = shuffle rng (Array.init n Fun.id) in
  let node i = node label.(i) in
  let ring = List.init n (fun i -> (i, (i + 1) mod n)) in
  let chord_list = List.init chords (fun j -> (2 * j, ((2 * j) + 16) mod n)) in
  let order = shuffle rng (Array.init (n / 2) (fun j -> (2 * j) + 1)) in
  let roads =
    List.map (fun (u, v) -> (u, v, 6)) ring
    @ List.map (fun (u, v) -> (u, v, 3)) chord_list
  in
  let cu, cv, cw = List.nth roads (n + Random.State.int rng chords) in
  let named l = List.map (fun (u, v) -> (node u, node v)) l in
  let road_values toggled =
    String.concat ", "
      (List.map
         (fun (u, v, w) ->
           let w = if toggled && (u, v) = (cu, cv) then w + 5 else w in
           Fmt.str "(%S, %S, %d)" (node u) (node v) w)
         roads)
  in
  let schema = edge_types ^ tc_decl ^ road_decls in
  let edge_insert = insert_edges "Edge" (named (ring @ chord_list)) in
  let refs =
    List.map
      (fun toggled ->
        let program =
          Fmt.str "%s%s\nINSERT Road VALUES %s;" schema edge_insert
            (road_values toggled)
        in
        reference_extents program [ ("Edge", "tc"); ("Road", "shortest") ])
      [ false; true ]
  in
  let tc_ref = List.hd (List.hd refs) in
  let reach a =
    List.filter (fun t -> Value.equal (Tuple.get t 0) (str a)) tc_ref
  in
  let road u v w = Tuple.make3 (str (node u)) (str (node v)) (Value.Int w) in
  let half rng h toggled_before =
    let reads =
      List.init reads (fun _ ->
          let a = node (Random.State.int rng n) in
          query_stmt Read (point_read a) (reach a))
    in
    let i = order.(((h mod (n / 2)) + (n / 2)) mod (n / 2)) in
    let e = pair (node i) (node ((i + 1) mod n)) in
    let edge_src = Fmt.str "(%S, %S)" (node i) (node ((i + 1) mod n)) in
    let w_old, w_new = if toggled_before then (cw + 5, cw) else (cw, cw + 5) in
    let write kind src records check_views toggled =
      { kind; req = Wire.Stmt src; expect = []; records; check_views; toggled }
    in
    reads
    @ [
        write Delete
          (Fmt.str "DELETE Edge VALUES %s;" edge_src)
          [ [ ("Edge", [], [ e ]) ] ]
          false toggled_before;
        write Insert
          (Fmt.str "INSERT Edge VALUES %s;" edge_src)
          [ [ ("Edge", [ e ], []) ] ]
          true toggled_before;
        write Reweight
          (Fmt.str
             "DELETE Road VALUES (%S, %S, %d); INSERT Road VALUES (%S, %S, %d);"
             (node cu) (node cv) w_old (node cu) (node cv) w_new)
          [
            [ ("Road", [], [ road cu cv w_old ]) ];
            [ ("Road", [ road cu cv w_new ], []) ];
          ]
          false (not toggled_before);
      ]
  in
  {
    durable = true;
    setup =
      [
        schema;
        edge_insert;
        Fmt.str "INSERT Road VALUES %s;" (road_values false);
        "MATERIALIZE Edge{tc()};";
        "MATERIALIZE Road{shortest()};";
      ];
    cycle =
      (fun i ->
        let rng = cycle_rng seed i in
        let first = half rng (2 * i) false in
        first @ half rng ((2 * i) + 1) true);
    extents =
      [ "QUERY Edge;"; "QUERY Road;"; "QUERY Edge{tc()};"; "QUERY Road{shortest()};" ];
    views =
      (fun ~toggled ->
        let r = List.nth refs (if toggled then 1 else 0) in
        [
          ("QUERY Edge{tc()};", List.nth r 0);
          ("QUERY Road{shortest()};", List.nth r 1);
        ]);
  }

let workloads = [ ("reach_point", reach_point); ("closure_scan", closure_scan); ("update_views", update_views) ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* linear interpolation between closest ranks *)
let quantile sorted_arr q =
  let n = Array.length sorted_arr in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    sorted_arr.(lo) +. ((h -. float_of_int lo) *. (sorted_arr.(hi) -. sorted_arr.(lo)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

let mean l = match l with [] -> nan | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)

(* A fixed CPU loop, timed before and after each run so a slow machine
   phase is visible next to the numbers. *)
let cpu_loop_ms () =
  let t0 = now_ms () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := (!acc * 31) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !acc);
  now_ms () -. t0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_count () =
  List.length
    (List.filter
       (String.starts_with ~prefix:"processor")
       (String.split_on_char '\n' (read_file "/proc/cpuinfo")))

(* the CPUs this process may run on, as /proc/self/status lists them *)
let cpus_allowed () =
  match
    List.find_opt
      (String.starts_with ~prefix:"Cpus_allowed_list:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | Some line -> String.trim (String.sub line 18 (String.length line - 18))
  | None -> "unknown"

(* filesystem type and device of the mount holding [dir] *)
let filesystem_of dir =
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir
  in
  let best = ref ("", "unknown", "unknown") in
  (try
     String.split_on_char '\n' (read_file "/proc/mounts")
     |> List.iter (fun line ->
            match String.split_on_char ' ' line with
            | dev :: mnt :: fs :: _ ->
              let prefix =
                mnt = "/"
                || String.starts_with ~prefix:(mnt ^ "/") (dir ^ "/")
              in
              let m, _, _ = !best in
              if prefix && String.length mnt > String.length m then
                best := (mnt, fs, dev)
            | _ -> ())
   with Sys_error _ -> ());
  let _, fs, dev = !best in
  (fs, dev)

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)

type proc = { pid : int; sock : string; data : string option }

let live : int list ref = ref []

(* SIGTERM lets the server drain and checkpoint; one that has not exited
   10 s later is killed, so a run always ends *)
let stop_proc p =
  if List.mem p.pid !live then begin
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now_ms () +. 10_000. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ when now_ms () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    (try wait () with Unix.Unix_error _ -> ());
    live := List.filter (( <> ) p.pid) !live
  end

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The server runs at its defaults: no DC_DOMAINS, no DC_METRICS. *)
let server_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"DC_DOMAINS=" kv
           || String.starts_with ~prefix:"DC_METRICS=" kv))
  |> Array.of_list

let spawn ~dbpl ~work ~durable serial =
  let sock = Filename.concat work (Fmt.str "s%d.sock" serial) in
  (try Sys.remove sock with Sys_error _ -> ());
  let data =
    if durable then begin
      let d = Filename.concat work (Fmt.str "data%d" serial) in
      rm_rf d;
      Some d
    end
    else None
  in
  let args =
    [ dbpl; "serve"; "--listen"; "unix:" ^ sock ]
    @ match data with Some d -> [ "--data"; d ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile
      (Filename.concat work (Fmt.str "server%d.log" serial))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process_env dbpl (Array.of_list args) (server_env ()) devnull
      devnull log
  in
  Unix.close devnull;
  Unix.close log;
  live := pid :: !live;
  { pid; sock; data }

let connect p =
  let deadline = now_ms () +. 30_000. in
  let rec go () =
    match Client.connect (Dc_net.Net.Unix_sock p.sock) with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) p.pid) !live;
        fail "dbpl serve exited before listening (see its log)");
      if now_ms () > deadline then
        fail "dbpl serve did not listen within 30 s: %s" (Printexc.to_string e);
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* utime + stime of the whole server process, in ms *)
let proc_cpu_ms pid =
  let s = read_file (Fmt.str "/proc/%d/stat" pid) in
  (* the fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15, in USER_HZ = 100 ticks *)
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  10. *. (float_of_string f.(11) +. float_of_string f.(12))

let proc_hwm_mb pid =
  let s = read_file (Fmt.str "/proc/%d/status" pid) in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let checkpoint_stamp p =
  match p.data with
  | None -> None
  | Some d -> (
    match Unix.stat (Filename.concat d "checkpoint.dat") with
    | st -> Some (st.Unix.st_ino, st.Unix.st_mtime)
    | exception Unix.Unix_error _ -> None)

(* ------------------------------------------------------------------ *)
(* End-to-end run over the wire                                        *)

type tally = {
  lat : (kind, float list ref) Hashtbl.t;
  attempted : (kind, int ref) Hashtbl.t;
  failed : (kind, int ref) Hashtbl.t;
  mutable problems : string list;
}

let new_tally () =
  { lat = Hashtbl.create 8; attempted = Hashtbl.create 8; failed = Hashtbl.create 8; problems = [] }

let push tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl k (ref [ v ])

let bump tbl k = match Hashtbl.find_opt tbl k with Some r -> incr r | None -> Hashtbl.add tbl k (ref 1)
let count tbl k = match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0

let problem t fmt = Fmt.kstr (fun s -> if List.length t.problems < 20 then t.problems <- s :: t.problems) fmt

let same_rows expect got = List.equal Tuple.equal expect (sorted got)

(* Full extents of both views must equal the in-process reference. *)
let check_views_wire c w ~toggled t =
  List.for_all
    (fun (src, expect) ->
      match Client.query c src with
      | _, _, rows ->
        same_rows expect rows
        || (problem t "%s: view extent differs from reference" src; false)
      | exception Client.Remote (_, msg) ->
        problem t "%s: %s" src msg;
        false)
    (w.views ~toggled)

(* Run one statement, timing it client-side; returns its latency. *)
let run_wire c t (s : stmt) =
  bump t.attempted s.kind;
  let t0 = now_ms () in
  let ok =
    match s.req with
    | Wire.Query src -> (
      match Client.query c src with
      | _, _, rows -> `Rows rows
      | exception Client.Remote (_, msg) -> `Err msg)
    | Wire.Stmt src -> (
      match Client.exec c src with
      | _ -> `Done
      | exception Client.Remote (_, msg) -> `Err msg)
    | _ -> assert false
  in
  let dt = now_ms () -. t0 in
  (match ok with
  | `Rows rows when not (same_rows s.expect rows) ->
    bump t.failed s.kind;
    problem t "%s returned %d rows, expected %d" (kind_name s.kind)
      (List.length rows) (List.length s.expect)
  | `Err msg ->
    bump t.failed s.kind;
    problem t "%s failed: %s" (kind_name s.kind) msg
  | `Rows _ | `Done -> ());
  dt

let cardinalities c w =
  List.map
    (fun src ->
      match Client.query c src with
      | _, _, rows -> (src, List.length rows)
      | exception Client.Remote (_, msg) -> fail "%s: %s" src msg)
    w.extents

(* Spawn, load over the wire, run one warm-up cycle; returns the
   connected server and the set-up time in seconds. *)
let setup_server ~dbpl ~work w serial t =
  let t0 = now_ms () in
  let p = spawn ~dbpl ~work ~durable:w.durable serial in
  let c = connect p in
  List.iter
    (fun src ->
      try ignore (Client.exec c src)
      with Client.Remote (_, msg) -> fail "set-up statement failed: %s" msg)
    w.setup;
  List.iter (fun s -> ignore (run_wire c t s)) (w.cycle (-1));
  let dt = (now_ms () -. t0) /. 1000. in
  (p, c, dt)

type e2e = {
  tally : tally;
  statements : int;
  window_s : float;
  setup_s : float;
  cpu_ms_per_stmt : float;
  rss_mb : float;
  checkpoint_in_window : bool;
  cycles : int;
  cycle_lat : float list;  (** wall time of each timed cycle, verification excluded *)
}

let setups = 11

let run_e2e ~dbpl ~work ~seconds w =
  let t = new_tally () in
  (* set up [setups] times and keep the last server; the median is the
     set-up time, so one slow spawn does not move it *)
  let rec go i acc =
    let p, c, dt = setup_server ~dbpl ~work w i t in
    if i + 1 < setups then begin
      Client.close c;
      stop_proc p;
      go (i + 1) (dt :: acc)
    end
    else (p, c, dt :: acc)
  in
  let p, c, setup_times = go 0 [] in
  (* the warm-up cycles are not part of the measured tally *)
  let t = { (new_tally ()) with problems = t.problems } in
  let start_cards = cardinalities c w in
  let stamp0 = checkpoint_stamp p in
  let verify_ms = ref 0. and verify_cpu = ref 0. in
  let statements = ref 0 in
  let cpu0 = proc_cpu_ms p.pid in
  let t0 = now_ms () in
  let deadline = t0 +. (seconds *. 1000.) in
  let cycles = ref 0 and cycle_lat = ref [] in
  while now_ms () < deadline do
    let c0 = now_ms () and v0 = !verify_ms in
    List.iter
      (fun s ->
        push t.lat s.kind (run_wire c t s);
        incr statements;
        if s.check_views then begin
          (* verification is excluded from the window and the CPU count *)
          let v0 = now_ms () and c0 = proc_cpu_ms p.pid in
          if not (check_views_wire c w ~toggled:s.toggled t) then bump t.failed s.kind;
          verify_cpu := !verify_cpu +. (proc_cpu_ms p.pid -. c0);
          verify_ms := !verify_ms +. (now_ms () -. v0)
        end)
      (w.cycle !cycles);
    cycle_lat := (now_ms () -. c0 -. (!verify_ms -. v0)) :: !cycle_lat;
    incr cycles
  done;
  let window_ms = now_ms () -. t0 -. !verify_ms in
  let cpu = proc_cpu_ms p.pid -. cpu0 -. !verify_cpu in
  let stamp1 = checkpoint_stamp p in
  let end_cards = cardinalities c w in
  List.iter2
    (fun (src, a) (_, b) ->
      if a <> b then problem t "extent not neutral: %s had %d tuples, now %d" src a b)
    start_cards end_cards;
  let final_views = check_views_wire c w ~toggled:false t in
  if not final_views then problem t "final view check failed";
  let rss = proc_hwm_mb p.pid in
  Client.close c;
  stop_proc p;
  ( {
      tally = t;
      statements = !statements;
      window_s = window_ms /. 1000.;
      setup_s = median setup_times;
      cpu_ms_per_stmt = cpu /. float_of_int !statements;
      rss_mb = rss;
      checkpoint_in_window = stamp0 <> stamp1;
      cycles = !cycles;
      cycle_lat = !cycle_lat;
    },
    start_cards = end_cards && final_views )

(* ------------------------------------------------------------------ *)
(* Traced in-process replay                                            *)

(* Layer accumulators, per statement kind: metric name -> samples. *)
type layers = (kind * string, float list ref) Hashtbl.t

let timed f =
  let t0 = now_ms () in
  let v = f () in
  (v, now_ms () -. t0)

let counter name = Obs.Counter.value (Obs.Counter.make name)
let hist_sum name = Obs.Histogram.sum (Obs.Histogram.make name)
let hist_count name = Obs.Histogram.count (Obs.Histogram.make name)

(* Layers on the served path; their means add up against the untraced
   client-observed latency.  compile.plan_ms and wal.append_ms are
   replicas timed beside the path (the planner is off the served read
   path today; the served WAL append happens inside server.commit_ms). *)
let on_path =
  [
    "net.codec_ms";
    "lang.parse_ms";
    "lang.elaborate_ms";
    "core.eval_ms";
    "server.queue_wait_ms";
    "server.commit_ms";
    "ivm.maintain_ms";
    "agg.recompute_ms";
  ]

type inproc = {
  srv : Server.t;
  sess : Server.session;
  env : Elaborate.env;
  db : Dc_core.Database.t;
  scratch_wal : Dc_wal.Wal.t;
  agg_views : string list;  (** views whose maintenance is agg.recompute_ms *)
}

let inproc_setup ~work w =
  let dir = Filename.concat work "inproc" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let db = Dc_core.Database.create () in
  let durable =
    if w.durable then Some (Dc_wal.Durable.open_dir ~db (Filename.concat dir "data"))
    else None
  in
  let srv = Server.create ?wal:durable db in
  let sess = Server.open_session srv in
  List.iter (fun src -> ignore (Server.execute sess src)) w.setup;
  let scratch_wal, _ = Dc_wal.Wal.load (Filename.concat dir "scratch.log") in
  let agg_views =
    List.filter_map
      (fun v ->
        if Dc_ivm.Ivm.constructor v = "shortest" then Some (Dc_ivm.Ivm.name v) else None)
      (Dc_ivm.Ivm.views db)
  in
  { srv; sess; env = Elaborate.create db; db; scratch_wal; agg_views }

let inproc_close ip =
  Server.close_session ip.sess;
  Server.shutdown ip.srv;
  Dc_wal.Wal.close ip.scratch_wal

(* One statement through the same calls the server makes, untimed but
   for its total. *)
let plain_stmt ip (s : stmt) =
  let t0 = now_ms () in
  let resp =
    match Wire.decode_request (Wire.encode_request s.req) with
    | Wire.Query src ->
      let rel, version = Server.query_string ip.sess src in
      Wire.Rows
        {
          version;
          columns = Schema.attr_names (Relation.schema rel);
          tuples = Relation.to_list rel;
        }
    | Wire.Stmt src -> Wire.Output (Server.execute ip.sess src)
    | _ -> assert false
  in
  ignore (Wire.decode_response (Wire.encode_response resp));
  now_ms () -. t0

(* One statement with every layer call timed.  Returns the on-path
   total and whether the result was right. *)
let traced_stmt ip (l : layers) (s : stmt) =
  let k = s.kind in
  let total = ref 0. in
  let path name v =
    push l (k, name) v;
    total := !total +. v
  in
  let req_s, e1 = timed (fun () -> Wire.encode_request s.req) in
  let req, e2 = timed (fun () -> Wire.decode_request req_s) in
  let codec = e1 +. e2 in
  let src = match req with Wire.Query src | Wire.Stmt src -> src | _ -> assert false in
  let prog, parse_ms = timed (fun () -> Dc_lang.Parser.parse src) in
  path "lang.parse_ms" parse_ms;
  let resp, ok =
    match (req, prog) with
    | Wire.Query _, [ Dc_lang.Surface.D_query r ] ->
      let range, elab = timed (fun () -> Elaborate.lower_query ip.env r) in
      path "lang.elaborate_ms" elab;
      let rounds0 = counter "dc_fixpoint_rounds_total"
      and tuples0 = hist_sum "dc_fixpoint_round_delta" in
      let (rel, version), eval = timed (fun () -> Server.query ip.sess range) in
      path "core.eval_ms" eval;
      let rows = Relation.cardinal rel in
      let produced = hist_sum "dc_fixpoint_round_delta" -. tuples0 in
      push l (k, "core.fixpoint_rounds")
        (float_of_int (counter "dc_fixpoint_rounds_total" - rounds0));
      push l (k, "core.tuples_produced") produced;
      push l (k, "core.tuples_per_row") (if rows = 0 then 0. else produced /. float_of_int rows);
      let tuples = Relation.to_list rel in
      let resp =
        Wire.Rows { version; columns = Schema.attr_names (Relation.schema rel); tuples }
      in
      let (), plan = timed (fun () -> ignore (Dc_compile.Planner.plan ip.db range)) in
      push l (k, "compile.plan_ms") plan;
      (resp, same_rows s.expect tuples)
    | Wire.Stmt _, prog ->
      let buf = Buffer.create 64 in
      let wait = ref 0. and commit = ref 0. and ivm = ref 0. and agg = ref 0. in
      let over0 = counter "dc_ivm_overdeleted_total"
      and red0 = counter "dc_ivm_rederived_total"
      and ckpt0 = hist_count "dc_wal_checkpoint_ms" in
      List.iter
        (fun d ->
          Dc_ivm.Ivm.reset_reports ();
          let started = ref 0. in
          let t_sub = now_ms () in
          Server.submit ip.srv (fun () ->
              started := now_ms ();
              Elaborate.execute_decl ip.env d);
          let t_ret = now_ms () in
          let maint =
            List.fold_left
              (fun (i, a) (rp : Dc_ivm.Ivm.report) ->
                if List.mem rp.rp_view ip.agg_views then (i, a +. rp.rp_ms)
                else (i +. rp.rp_ms, a))
              (0., 0.) (Dc_ivm.Ivm.reports ())
          in
          wait := !wait +. (!started -. t_sub);
          commit := !commit +. (t_ret -. !started -. fst maint -. snd maint);
          ivm := !ivm +. fst maint;
          agg := !agg +. snd maint)
        prog;
      path "server.queue_wait_ms" !wait;
      path "server.commit_ms" !commit;
      (match k with
      | Reweight -> path "agg.recompute_ms" !agg
      | _ -> path "ivm.maintain_ms" !ivm);
      if k = Delete then begin
        let over = counter "dc_ivm_overdeleted_total" - over0
        and red = counter "dc_ivm_rederived_total" - red0 in
        push l (k, "ivm.overdeleted") (float_of_int over);
        push l (k, "ivm.rederived") (float_of_int red);
        push l (k, "ivm.overdelete_waste")
          (if over = 0 then 0. else float_of_int red /. float_of_int over)
      end;
      push l (k, "wal.checkpoints") (float_of_int (hist_count "dc_wal_checkpoint_ms" - ckpt0));
      (* the same change appended to a scratch log *)
      let size0 = Dc_wal.Wal.size ip.scratch_wal in
      let (), app =
        timed (fun () ->
            List.iter
              (fun changes ->
                ignore
                  (Dc_wal.Wal.append ip.scratch_wal
                     ~version:(Dc_core.Database.version ip.db) ~changes))
              s.records)
      in
      push l (k, "wal.append_ms") app;
      push l (k, "wal.bytes_per_write") (float_of_int (Dc_wal.Wal.size ip.scratch_wal - size0));
      if Dc_wal.Wal.size ip.scratch_wal > 1 lsl 20 then Dc_wal.Wal.reset ip.scratch_wal;
      (Wire.Output (Buffer.contents buf), true)
    | _ -> assert false
  in
  let resp_s, e3 = timed (fun () -> Wire.encode_response resp) in
  let _, e4 = timed (fun () -> Wire.decode_response resp_s) in
  path "net.codec_ms" (codec +. e3 +. e4);
  push l (k, "net.response_bytes") (float_of_int (String.length resp_s));
  (!total, ok)

(* Full extents of both views must equal the in-process reference. *)
let check_views_inproc ip w ~toggled =
  List.for_all
    (fun (src, expect) ->
      let rel, _ = Server.query_string ip.sess src in
      same_rows expect (Relation.to_list rel))
    (w.views ~toggled)

type trace_result = {
  layers : layers;
  traced_total : (kind, float list ref) Hashtbl.t;
  plain_total : (kind, float list ref) Hashtbl.t;
  trace_failed : int;
}

let run_traced ~work ~seconds ~cycles w =
  let ip = inproc_setup ~work w in
  List.iter (fun s -> ignore (plain_stmt ip s)) (w.cycle (-1));
  (* untraced pass: metrics off, whole statements timed; it also fixes
     how many cycles both passes replay *)
  Obs.set_enabled false;
  let plain_total = Hashtbl.create 8 in
  let deadline = now_ms () +. (seconds *. 250.) in
  let replayed = ref 0 in
  while !replayed < cycles && (now_ms () < deadline || !replayed = 0) do
    List.iter (fun s -> push plain_total s.kind (plain_stmt ip s)) (w.cycle !replayed);
    incr replayed
  done;
  Obs.reset ();
  Obs.set_enabled true;
  let layers = Hashtbl.create 64 and traced_total = Hashtbl.create 8 in
  let failed = ref 0 in
  for i = 0 to !replayed - 1 do
    List.iter
      (fun s ->
        let total, ok = traced_stmt ip layers s in
        push traced_total s.kind total;
        let ok =
          ok && ((not s.check_views) || check_views_inproc ip w ~toggled:s.toggled)
        in
        if not ok then incr failed)
      (w.cycle i)
  done;
  Obs.set_enabled false;
  inproc_close ip;
  { layers; traced_total; plain_total; trace_failed = !failed }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num v =
  if Float.is_finite v then Fmt.str "%.17g" v else fail "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Fmt.str "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@."
    correct attempted failed body

let kinds_of w =
  let seen = List.map (fun s -> s.kind) (w.cycle 0) in
  List.filter (fun k -> List.mem k seen) all_kinds

let sorted_samples l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* p50 and p90 of every kind the workload issues, and the rates, as
   context *)
let print_e2e_context w (r : e2e) =
  List.iter
    (fun k ->
      let a = sorted_samples !(Hashtbl.find r.tally.lat k) in
      Fmt.pr "# %-8s p50 %9.3f ms  p90 %9.3f ms  n=%d@." (kind_name k) (quantile a 0.5)
        (quantile a 0.9) (Array.length a))
    (kinds_of w);
  Fmt.pr "# cycle    p50 %9.3f ms  n=%d@." (median r.cycle_lat) (List.length r.cycle_lat);
  Fmt.pr "# stmt_per_s %.3f  server_cpu_ms_per_stmt %.3f@."
    (float_of_int r.statements /. r.window_s)
    r.cpu_ms_per_stmt

(* The latencies are p90s.  On a shared host, contention for memory from
   outside makes the latency switch between two levels about 1.5x apart,
   in phases of seconds, and the share of slow time varies from run to
   run.  A p50, a mean or a rate moves with that share; the p90 stays
   inside the slow level.  See README.md. *)
let e2e_metrics w (r : e2e) =
  let p90 what l =
    let a = sorted_samples l in
    if Array.length a < 100 then
      Fmt.epr "servbench: only %d %s samples; p90 has fewer than 10 beyond it@."
        (Array.length a) what;
    quantile a 0.9
  in
  let queries =
    List.concat_map
      (fun k -> if is_query k then !(Hashtbl.find r.tally.lat k) else [])
      (kinds_of w)
  in
  [
    ("setup_s", r.setup_s, "s");
    ("query_p90_ms", p90 "query" queries, "ms");
    ("cycle_p90_ms", p90 "cycle" r.cycle_lat, "ms");
    ("server_rss_mb", r.rss_mb, "MB");
  ]

let layer_unit name =
  if String.ends_with ~suffix:"_ms" name then "ms"
  else if String.ends_with ~suffix:"_pct" name then "%"
  else if String.ends_with ~suffix:"bytes" name || String.ends_with ~suffix:"_per_write" name then "bytes"
  else if String.ends_with ~suffix:"_per_row" name || String.ends_with ~suffix:"_waste" name then "ratio"
  else "count"

(* The attribution table of one kind, on context lines. *)
let print_kind_trace (r : e2e) (tr : trace_result) k =
  let names =
    Hashtbl.fold (fun (k', n) _ acc -> if k' = k then n :: acc else acc) tr.layers []
    |> List.sort compare
  in
  let get n = !(Hashtbl.find tr.layers (k, n)) in
  let untraced = mean !(Hashtbl.find r.tally.lat k) in
  let attributed =
    List.fold_left (fun acc n -> if List.mem n on_path then acc +. mean (get n) else acc) 0. names
  in
  let traced = mean !(Hashtbl.find tr.traced_total k)
  and plain = mean !(Hashtbl.find tr.plain_total k) in
  let n_wire = List.length !(Hashtbl.find r.tally.lat k) in
  Fmt.pr "# %-8s untraced mean %8.3f ms over the wire (n=%d)@." (kind_name k) untraced n_wire;
  List.iter
    (fun n ->
      Fmt.pr "#   %-24s %10.4f %-5s n=%d%s@." n (mean (get n)) (layer_unit n)
        (List.length (get n))
        (if List.mem n on_path then "" else "  (beside the path)"))
    names;
  Fmt.pr "#   %-24s %10.4f ms    n=%d@." "trace.unattributed_ms" (untraced -. attributed) n_wire;
  Fmt.pr "#   %-24s %10.4f %%     traced %.3f ms vs untraced %.3f ms in process, n=%d@."
    "trace.overhead_pct"
    (100. *. (traced -. plain) /. plain)
    traced plain
    (List.length !(Hashtbl.find tr.traced_total k))

(* The per-layer metrics have the same names on every workload.  Each is a
   mean per statement over the statements the layer serves: net, lang.parse
   and trace over all of them, lang.elaborate, core and compile over the
   queries, ivm and wal over the writes (0 on a read-only workload). *)
let trace_metrics w (r : e2e) (tr : trace_result) =
  let kinds = kinds_of w in
  List.iter (print_kind_trace r tr) kinds;
  let over pred tbl = List.concat_map (fun k -> if pred k then !(Hashtbl.find tbl k) else []) kinds in
  let samples pred n =
    List.concat_map
      (fun k ->
        match Hashtbl.find_opt tr.layers (k, n) with
        | Some l when pred k -> !l
        | _ -> [])
      kinds
  in
  let all _ = true and write k = not (is_query k) in
  let sum = List.fold_left ( +. ) 0. in
  let mean0 l = if l = [] then 0. else mean l in
  let traced = over all tr.traced_total and plain = over all tr.plain_total in
  let attributed =
    sum (List.map (fun n -> sum (samples all n)) on_path) /. float_of_int (List.length traced)
  in
  let unattributed = mean (over all r.tally.lat) -. attributed
  and overhead = 100. *. (mean traced -. mean plain) /. mean plain in
  let overdeleted = sum (samples write "ivm.overdeleted")
  and rederived = sum (samples write "ivm.rederived") in
  let m name v = (name, v, layer_unit name) in
  [
    m "net.codec_ms" (mean (samples all "net.codec_ms"));
    m "net.response_bytes" (mean (samples all "net.response_bytes"));
    m "lang.parse_ms" (mean (samples all "lang.parse_ms"));
    m "lang.elaborate_ms" (mean (samples is_query "lang.elaborate_ms"));
    m "core.eval_ms" (mean (samples is_query "core.eval_ms"));
    m "core.fixpoint_rounds" (mean (samples is_query "core.fixpoint_rounds"));
    m "core.tuples_produced" (mean (samples is_query "core.tuples_produced"));
    m "core.tuples_per_row" (mean (samples is_query "core.tuples_per_row"));
    m "compile.plan_ms" (mean (samples is_query "compile.plan_ms"));
    m "ivm.overdeleted" (mean0 (samples write "ivm.overdeleted"));
    m "ivm.rederived" (mean0 (samples write "ivm.rederived"));
    m "ivm.overdelete_waste" (if overdeleted = 0. then 0. else rederived /. overdeleted);
    m "wal.bytes_per_write" (mean0 (samples write "wal.bytes_per_write"));
    m "wal.checkpoints" (sum (samples write "wal.checkpoints"));
    m "trace.unattributed_ms" unattributed;
    m "trace.overhead_pct" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let dbpl = ref "_build/default/bin/dbpl.exe" and work = ref ".servbench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " reach_point | closure_scan | update_views");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics from a traced replay");
      ("--dbpl", Arg.Set_string dbpl, " path of the dbpl executable");
      ("--work", Arg.Set_string work, " scratch directory for sockets and data");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some make -> make !seed
    | None -> fail "unknown workload %S" !workload
  in
  if not (Sys.file_exists !dbpl) then fail "no dbpl executable at %s" !dbpl;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> kill_all (); exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a larger minor heap keeps the harness's own collections out of most
     client-observed timings *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20 };
  let loop_before = cpu_loop_ms () in
  let r, neutral = run_e2e ~dbpl:!dbpl ~work:!work ~seconds:!seconds w in
  let tr =
    if !trace = 1 then Some (run_traced ~work:!work ~seconds:!seconds ~cycles:r.cycles w)
    else None
  in
  let loop_after = cpu_loop_ms () in
  let fs, dev = filesystem_of !work in
  Fmt.pr
    "# env {\"nproc\": %d, \"cpus_allowed\": %S, \"ocaml\": %S, \"par_domains\": %d, \"data_fs\": %S, \
     \"data_dev\": %S, \"flush\": \"fsync per commit group; checkpoint every 1024 \
     records or 4 MiB\", \"durable\": %b, \"checkpoint_in_window\": %b, \
     \"cpu_loop_ms_before\": %.3f, \"cpu_loop_ms_after\": %.3f, \"cycles\": %d, \
     \"window_s\": %.3f}@."
    (cpu_count ()) (cpus_allowed ()) Sys.ocaml_version (Dc_par.Par.domains ()) fs dev w.durable r.checkpoint_in_window
    loop_before loop_after r.cycles r.window_s;
  List.iter (fun p -> Fmt.epr "servbench: %s@." p) (List.rev r.tally.problems);
  let attempted = List.fold_left (fun a k -> a + count r.tally.attempted k) 0 all_kinds in
  let failed = List.fold_left (fun a k -> a + count r.tally.failed k) 0 all_kinds in
  List.iter
    (fun k ->
      if count r.tally.attempted k > 0 then
        Fmt.pr "# %s: %d attempted, %d failed@." (kind_name k) (count r.tally.attempted k)
          (count r.tally.failed k))
    all_kinds;
  let metrics, failed =
    match tr with
    | None ->
      print_e2e_context w r;
      (e2e_metrics w r, failed)
    | Some tr ->
      if tr.trace_failed > 0 then Fmt.epr "servbench: %d traced statements failed@." tr.trace_failed;
      (trace_metrics w r tr, failed + tr.trace_failed)
  in
  print_result ~correct:(neutral && failed = 0 && r.tally.problems = []) ~attempted ~failed metrics
