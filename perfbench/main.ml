(* End-to-end benchmark of the DCO-3D reproduction: one seeded workload
   per process, driven through the layers' public functions.

     main.exe --workload dco3d_dma|ppa_matrix|serve_predict --seed N
              --seconds S --trace 0|1 --tmp DIR --dco3d PATH [--digest]

   It prints one JSON object as its last stdout line: the input digest,
   the operations attempted and failed, the output-check failures and
   the metrics (end-to-end ones untraced, per-layer ones with
   --trace 1).  [run.py] builds it, adds the run conditions and prints
   the benchmark's result line; README.md explains every workload and
   metric.  The program under test receives only inputs generated from
   the seed. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Gen = Dco3d_netlist.Generator
module Placer = Dco3d_place.Placer
module Fm = Dco3d_congestion.Feature_maps
module Route_cache = Dco3d_route.Route_cache
module Flow = Dco3d_flow.Flow
module Dataset = Dco3d_core.Dataset
module Predictor = Dco3d_core.Predictor
module Dco = Dco3d_core.Dco
module Corpus = Dco3d_corpus.Corpus
module SiaUNet = Dco3d_nn.Siamese_unet
module Obs = Dco3d_obs.Obs
module Pool = Dco3d_parallel.Pool
module Server = Dco3d_serve.Server
module Balance = Dco3d_serve.Balance
module Client = Dco3d_serve.Client

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload sizes.  Changing any of these changes the benchmark: the   *)
(* baseline must be measured again.                                    *)
(* ------------------------------------------------------------------ *)

(* dco3d_dma: the paper's method on one DMA design at a small budget *)
let dma_scale = 0.15
let dma_samples = 4
let dma_epochs = 2
let dma_iterations = 10

(* ppa_matrix: three corpus points (one macro-heavy) x base/cong *)
let ppa_points = [ "aes"; "vga-macro"; "ecg-local" ]
let ppa_scale = 0.01

(* serve_predict: 48x48 feature maps, the shards' untrained model *)
let serve_hw = 48
let serve_model_seed = 42
let serve_input_hw = 32
(* open-loop total req/s, also in BENCHMARK.json: about half of the
   ~83 req/s saturation of a quiet 2-core host.  Each connection then
   sends every n/rate = 50 ms, twice a forward pass, so requests queue
   only when the host slows by half. *)
let serve_rate = 40.0
let serve_hot_every = 4 (* every 4th request repeats the hot set *)
let serve_hot_size = 6 (* far below the shard LRU's 128 entries *)
let serve_burst = 24 (* closed-loop requests per connection per burst *)

(* ------------------------------------------------------------------ *)
(* Small statistics and output helpers                                  *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile *)
let quantile q l =
  match sorted l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* failed requests carry an infinite latency; JSON has no infinity *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "1e12"

let digest_tensors ts =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t : T.t) -> Buffer.add_string b (Marshal.to_string (t.T.shape, t.T.data) []))
    ts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Peak resident set of a process in MiB, from /proc (0 when absent). *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Restart the kernel's peak-RSS high-water mark at the current RSS, so
   each repetition reports its own peak (no-op where unsupported). *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* Output checks: every operation is attempted once and fails when any  *)
(* of its checks fails.                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let operation checks =
  incr attempted;
  match List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks with
  | [] -> ()
  | msgs ->
      incr failed;
      if List.length !problems < 20 then problems := !problems @ msgs

(* ------------------------------------------------------------------ *)
(* Benchmark-owned spans: each public call the benchmark makes is      *)
(* timed here; layers the flow calls internally are read from the Obs  *)
(* stage profile, so no instrumentation is added inside lib/.           *)
(* ------------------------------------------------------------------ *)

let own : (string, float) Hashtbl.t = Hashtbl.create 16

let timed name f =
  let t0 = now () in
  let r = f () in
  let ms = (now () -. t0) *. 1e3 in
  Hashtbl.replace own name
    (ms +. Option.value ~default:0. (Hashtbl.find_opt own name));
  r

let own_ms name = Option.value ~default:0. (Hashtbl.find_opt own name)

(* Span rollups (path, calls, total ms) and counters recorded in other
   processes: the serving shards' profiles, read back after they exit. *)
let foreign_spans : (string * int * float) list ref = ref []
let foreign_counters : (string * int) list ref = ref []

(* Sum of every rolled-up span path that ends in the segments [seg].
   Pool workers start with empty span stacks, so one layer shows up
   under several roots ([dataset/build/sample:*/route] on the caller,
   [sample:*/route] on workers); summing all of them keeps the number
   independent of scheduling. *)
let span_stats seg =
  List.filter
    (fun (p, _, _) ->
      (p = seg || String.ends_with ~suffix:("/" ^ seg) p)
      (* the balancer's connection routing is not the global router *)
      && not (String.ends_with ~suffix:"balance/route" p))
    (List.map
       (fun s -> (s.Obs.sp_path, s.Obs.sp_count, s.Obs.sp_total_ms))
       (Obs.stage_profile ())
    @ !foreign_spans)

let span_ms seg = List.fold_left (fun a (_, _, ms) -> a +. ms) 0. (span_stats seg)

let span_mean_ms seg =
  let st = span_stats seg in
  ratio (span_ms seg) (float_of_int (List.fold_left (fun a (_, n, _) -> a + n) 0 st))

let counter name =
  float_of_int
    (List.fold_left
       (fun a (n, v) -> if n = name then a + v else a)
       (Obs.counter_value name) !foreign_counters)

(* Read a profile table written by [Obs.write_profile] (a process run
   with DCO3D_PROFILE) into [foreign_spans] and [foreign_counters]. *)
let read_profile path =
  match open_in path with
  | exception Sys_error _ -> false
  | ic ->
      let section = ref `Spans in
      (try
         while true do
           let line = input_line ic in
           let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
           match (!section, words) with
           | _, [ "counters:" ] -> section := `Counters
           | _, [ ("gauges:" | "histograms:") ] -> section := `Other
           | `Spans, [ path; calls; total; _; _; _ ] -> (
               match (int_of_string_opt calls, float_of_string_opt total) with
               | Some n, Some ms -> foreign_spans := (path, n, ms) :: !foreign_spans
               | _ -> ())
           | `Counters, [ name; v ] -> (
               match int_of_string_opt v with
               | Some v -> foreign_counters := (name, v) :: !foreign_counters
               | None -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      true

let histogram_mean name =
  match Obs.histogram_stats name with
  | Some (n, sum, _, _) when n > 0 -> sum /. float_of_int n
  | _ -> 0.

(* The layer metrics the Obs rollups and counters give, on whatever the
   traced pass ran (zero for layers it did not touch). *)
let layer_metrics () =
  [
    ("flow.calibrate_ms", span_ms "flow/calibrate");
    ("route.ms", span_ms "route");
    ("route.initial_ms", span_ms "route/initial");
    ("route.repair_ms", span_ms "route/repair:*");
    ("route.waves_ms", span_ms "repair:*/waves");
    ("route.partition_ms", span_ms "repair:*/partition");
    ("route.ripped_nets", counter "route/ripped_nets");
    ("route.astar_pops", counter "route/astar_pops");
    ("route.wave_size", histogram_mean "route/wave_size");
    ( "route.cache_hit_ratio",
      ratio (counter "route/cache_hit")
        (counter "route/cache_hit" +. counter "route/cache_miss") );
    ("place.ms", span_ms "place");
    ("place.cg_solve_ms", span_ms "cg_solve");
    ("place.spread_ms", span_ms "spread");
    ( "place.cg_converged_ratio",
      ratio (counter "place/cg_converged") (counter "place/cg_solves") );
    ("sta.ms", span_ms "sta");
    ("thermal.ms", span_ms "thermal_solve");
    ("thermal.cg_iters", counter "thermal/cg_iters");
    ("cts.ms", span_ms "cts");
    ("parallel.regions_parallel", counter "pool/regions_parallel");
    ("parallel.regions_inline", counter "pool/regions_inline");
  ]

(* Every per-layer metric, with its unit.  A traced run prints all of
   them on every workload, 0 where the workload does not reach the
   layer. *)
let per_layer_units =
  [
    ("core.dataset_ms", "ms"); ("core.train_ms", "ms"); ("core.epoch_ms", "ms");
    ("core.dco_ms", "ms"); ("core.dco_iter_ms", "ms"); ("core.accepted", "count");
    ("flow.pin3d_ms", "ms"); ("flow.finish_ms", "ms"); ("flow.calibrate_ms", "ms");
    ("corpus.cell_ms.p50", "ms"); ("corpus.cell_ms.max", "ms");
    ("route.ms", "ms"); ("route.initial_ms", "ms"); ("route.repair_ms", "ms");
    ("route.waves_ms", "ms"); ("route.partition_ms", "ms");
    ("route.ripped_nets", "count"); ("route.astar_pops", "count");
    ("route.wave_size", "count"); ("route.cache_hit_ratio", "ratio");
    ("place.ms", "ms"); ("place.cg_solve_ms", "ms"); ("place.spread_ms", "ms");
    ("place.cg_converged_ratio", "ratio");
    ("sta.ms", "ms"); ("thermal.ms", "ms"); ("thermal.cg_iters", "count");
    ("cts.ms", "ms");
    ("parallel.regions_parallel", "count"); ("parallel.regions_inline", "count");
    ("serve.rtt_ms", "ms"); ("serve.local_predict_ms", "ms");
    ("serve.shard_batch_ms", "ms");
    ("serve.tail_ms", "ms"); ("serve.tail_pct", "%"); ("serve.tail_n", "count");
    ("serve.gen_late_ms", "ms"); ("serve.sat_rps", "1/s");
    ("serve.cache_hit_ratio", "ratio"); ("serve.batch_size", "count");
    ("serve.overloaded", "count");
    ("quality.overflow", "count"); ("quality.wl_um", "um");
    ("quality.tns_ps", "ps");
    ("obs.trace_overhead_pct", "%");
  ]

let end_to_end_units =
  [ ("setup_s", "s"); ("wall_s", "s"); ("p50_ms", "ms"); ("peak_rss_mb", "MB") ]

type result = {
  input_digest : string;
  metrics : (string * float) list;  (** name -> value; units from the tables *)
}

(* Repeat one operation for [seconds], at least [min] times. *)
let repeat ~min ~seconds f =
  let t0 = now () in
  let rec go acc n =
    if n >= min && now () -. t0 >= seconds then acc else go (f () :: acc) (n + 1)
  in
  go [] 0

(* per-sample wall times on stderr, to tell input variation from noise *)
let log_samples label walls =
  Printf.eprintf "perfbench: %s samples (s): %s\n%!" label
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") walls))

let overhead_pct ~untraced ~traced = 100. *. (traced -. untraced) /. untraced

(* Run one pass untraced, then one traced pass from a clean Obs state;
   the traced pass's rollups feed the per-layer metrics.  Without the
   untraced baseline (a job-count leg) both are the traced pass. *)
let baseline = ref true

let traced_pair pass =
  Obs.disable ();
  let untraced = if !baseline then Some (pass ()) else None in
  Obs.reset ();
  Hashtbl.reset own;
  Obs.enable ();
  let traced = pass () in
  Obs.disable ();
  (Option.value ~default:traced untraced, traced)

(* ------------------------------------------------------------------ *)
(* dco3d_dma: dataset -> training -> Pin-3D -> Algorithm 2 -> finish,   *)
(* then the GR acceptance guard of bench/main.ml's [dco_of].            *)
(* ------------------------------------------------------------------ *)

(* The design is fixed (the bench harness's DMA at generator seed 42);
   the workload seed draws the method's own random inputs: the dataset's
   placement knobs, the training shuffle and the Algorithm-2 GNN. *)
let dma_netlist () = Gen.generate ~scale:dma_scale ~seed:42 (Gen.profile "DMA")

let dma_dataset ~seed nl ctx =
  let d =
    timed "core.dataset_ms" (fun () ->
        Dataset.build ~n_samples:dma_samples ~seed ~route_cfg:ctx.Flow.route_cfg nl
          ctx.Flow.fp)
  in
  (d, Dataset.split ~test_fraction:0.2 ~seed d)

(* the inputs the seed generates: the dataset and its training split *)
let dma_digest nl d (train, _) =
  Digest.to_hex
    (Digest.string
       (String.concat ":"
          [ Corpus.netlist_digest nl; Dataset.digest d; Dataset.digest train ]))

let dma_input_digest seed =
  let nl = dma_netlist () in
  let d, split = dma_dataset ~seed nl (Flow.make_context ~seed nl) in
  dma_digest nl d split

type dma_rep = {
  d_setup_s : float;
  d_wall_s : float;
  d_rss_mb : float;  (** peak RSS during the repetition *)
  d_overflow : int;
  d_wl : float;
  d_tns : float;
  d_accepted : bool;
  d_inputs : string;  (** digest of the generated inputs *)
}

let dma_rep seed =
  reset_peak_rss ();
  let t0 = now () in
  (* set-up: the design and its context (floorplan, baseline placement,
     routing capacities calibrated on it) *)
  let nl = dma_netlist () in
  let ctx = Flow.make_context ~seed nl in
  let t1 = now () in
  let d, ((train, test) as split) = dma_dataset ~seed nl ctx in
  let predictor, _ =
    timed "core.train_ms" (fun () ->
        Predictor.train ~epochs:dma_epochs ~input_hw:32 ~seed ~train ~test ())
  in
  let pin3d = timed "flow.pin3d_ms" (fun () -> Flow.run_pin3d ctx) in
  let config = { Dco.default_config with Dco.iterations = dma_iterations; seed } in
  let optimized, _ =
    timed "core.dco_ms" (fun () ->
        Dco.optimize ~config ~predictor pin3d.Flow.placement)
  in
  let res =
    timed "flow.finish_ms" (fun () ->
        Flow.run_with_placement ctx ~name:"DCO-3D" optimized)
  in
  (* the acceptance guard: keep Pin-3D's placement when global routing
     does not confirm DCO-3D's predicted gain *)
  let accepted =
    res.Flow.place_stage.Flow.overflow <= pin3d.Flow.place_stage.Flow.overflow
  in
  let final = if accepted then res else pin3d in
  let t2 = now () in
  let ovf = final.Flow.place_stage.Flow.overflow in
  let inputs = dma_digest nl d split in
  let legal = Placer.legal_check final.Flow.placement in
  let rep =
    {
      d_setup_s = t1 -. t0;
      d_wall_s = t2 -. t1;
      d_rss_mb = peak_rss_mb 0;
      d_overflow = ovf;
      d_wl = final.Flow.signoff.Flow.wirelength_um;
      d_tns = final.Flow.signoff.Flow.tns_ps;
      d_accepted = accepted;
      d_inputs = inputs;
    }
  in
  (rep, legal, pin3d.Flow.place_stage.Flow.overflow)

let dma_key r =
  (r.d_inputs, r.d_overflow, Int64.bits_of_float r.d_wl, Int64.bits_of_float r.d_tns)

let dco3d_dma ~seed ~seconds ~trace =
  let first = ref None in
  let run () =
    let rep, legal, pin3d_ovf = dma_rep seed in
    let same =
      match !first with
      | None ->
          first := Some (dma_key rep);
          true
      | Some k -> k = dma_key rep
    in
    operation
      [
        ( legal = Ok (),
          "dco3d_dma: final placement fails Placer.legal_check: "
          ^ (match legal with Error e -> e | Ok () -> "") );
        (* the guard's contract: never routes worse than Pin-3D.  The
           selection above makes this hold by construction; it guards
           that selection, not the program under test *)
        ( rep.d_overflow <= pin3d_ovf,
          Printf.sprintf "dco3d_dma: accepted overflow %d > Pin-3D's %d"
            rep.d_overflow pin3d_ovf );
        (same, "dco3d_dma: result differs between repetitions of one seed");
      ];
    rep
  in
  let quality r =
    [
      ("quality.overflow", float_of_int r.d_overflow);
      ("quality.wl_um", r.d_wl);
      ("quality.tns_ps", r.d_tns);
    ]
  in
  let metrics =
    if trace then begin
      let u, t = traced_pair run in
      [
        ("core.dataset_ms", own_ms "core.dataset_ms");
        ("core.train_ms", own_ms "core.train_ms");
        ("core.epoch_ms", span_mean_ms "predictor/epoch:*");
        ("core.dco_ms", own_ms "core.dco_ms");
        ("core.dco_iter_ms", span_mean_ms "dco/iter:*");
        ("core.accepted", if t.d_accepted then 1. else 0.);
        ("flow.pin3d_ms", own_ms "flow.pin3d_ms");
        ("flow.finish_ms", own_ms "flow.finish_ms");
        ( "obs.trace_overhead_pct",
          overhead_pct ~untraced:u.d_wall_s ~traced:t.d_wall_s );
      ]
      @ layer_metrics () @ quality t
    end
    else begin
      let reps = repeat ~min:3 ~seconds run in
      let walls = List.map (fun r -> r.d_wall_s) reps in
      log_samples "dco3d_dma wall" walls;
      [
        ("setup_s", median (List.map (fun r -> r.d_setup_s) reps));
        ("wall_s", median walls);
        ("p50_ms", 1e3 *. median walls);
        ("peak_rss_mb", median (List.map (fun r -> r.d_rss_mb) reps));
      ]
    end
  in
  let input_digest = match !first with Some (inputs, _, _, _) -> inputs | None -> "" in
  { input_digest; metrics }

(* ------------------------------------------------------------------ *)
(* ppa_matrix: Corpus.run_cell over a fixed subset x {base, cong}, a    *)
(* fresh route cache per pass (empty at the start, filled by the pass). *)
(* ------------------------------------------------------------------ *)

(* The corpus points are fixed (their native generator seeds): reseeding
   them per workload seed moved a pass between 3.0 s and 4.9 s at scale
   0.015, because routed overflow, and with it repair work, is a
   property of each netlist.  The workload seed draws the order in which
   the pass runs its cells. *)
let ppa_specs = List.map (fun n -> Corpus.scaled ppa_scale (Corpus.find n)) ppa_points

let ppa_cells seed =
  let cells =
    Array.of_list
      (List.concat_map
         (fun s -> List.map (fun fc -> (s, fc)) Corpus.default_configs)
         ppa_specs)
  in
  Rng.shuffle (Rng.create seed) cells;
  Array.to_list cells

(* the inputs: every corpus netlist, generated and digested, and the
   cell order *)
let ppa_input_digest seed =
  Digest.to_hex
    (Digest.string
       (String.concat ":"
          (List.map (fun s -> Corpus.netlist_digest (Corpus.generate s)) ppa_specs
          @ List.map
              (fun (s, fc) -> s.Corpus.sp_name ^ "/" ^ fc.Corpus.fc_name)
              (ppa_cells seed))))

type ppa_pass = {
  p_setup_s : float;
  p_wall_s : float;
  p_rss_mb : float;  (** peak RSS during the pass *)
  p_cells : (Corpus.row * float) list;  (** row, cell wall ms *)
}

let ppa_pass ~tmp ~seed ~index =
  reset_peak_rss ();
  let t0 = now () in
  let cells = ppa_cells seed in
  ignore (ppa_input_digest seed : string);
  let dir = Filename.concat tmp (Printf.sprintf "route-cache-%d" index) in
  remove_tree dir;
  let cache = Route_cache.create dir in
  let t1 = now () in
  let cells =
    List.map
      (fun (s, fc) ->
        let c0 = now () in
        let row = Corpus.run_cell ~route_cache:cache s fc in
        (row, (now () -. c0) *. 1e3))
      cells
  in
  let t2 = now () in
  remove_tree dir;
  {
    p_setup_s = t1 -. t0;
    p_wall_s = t2 -. t1;
    p_rss_mb = peak_rss_mb 0;
    p_cells = cells;
  }

let matrix_digest p =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun (r, _) -> Corpus.row_digest r) p.p_cells)))

let ppa_matrix ~tmp ~seed ~seconds ~trace =
  let first = ref None in
  let index = ref 0 in
  let run () =
    incr index;
    let p = ppa_pass ~tmp ~seed ~index:!index in
    let reference =
      match !first with
      | None ->
          first := Some p;
          p
      | Some f -> f
    in
    List.iter2
      (fun (r, _) (r0, _) ->
        operation
          [
            ( Corpus.row_digest r = Corpus.row_digest r0,
              Printf.sprintf "ppa_matrix: cell %s/%s row digest changed between passes"
                r.Corpus.r_design r.Corpus.r_config );
          ])
      p.p_cells reference.p_cells;
    operation
      [
        ( matrix_digest p = matrix_digest reference,
          "ppa_matrix: matrix digest changed between passes" );
      ];
    p
  in
  let quality p =
    let sum f = List.fold_left (fun a (r, _) -> a +. f r) 0. p.p_cells in
    [
      ("quality.overflow", sum (fun r -> float_of_int r.Corpus.r_overflow));
      ("quality.wl_um", sum (fun r -> r.Corpus.r_wirelength_um));
      ("quality.tns_ps", sum (fun r -> r.Corpus.r_tns_ps));
    ]
  in
  let metrics =
    if trace then begin
      let u, t = traced_pair run in
      let cell_ms = List.map snd t.p_cells in
      [
        ("corpus.cell_ms.p50", median cell_ms);
        ("corpus.cell_ms.max", List.fold_left Float.max 0. cell_ms);
        ("flow.pin3d_ms", span_ms "flow");
        ( "obs.trace_overhead_pct",
          overhead_pct ~untraced:u.p_wall_s ~traced:t.p_wall_s );
      ]
      @ layer_metrics () @ quality t
    end
    else begin
      let passes = repeat ~min:5 ~seconds run in
      let walls = List.map (fun p -> p.p_wall_s) passes in
      log_samples "ppa_matrix wall" walls;
      [
        ("setup_s", median (List.map (fun p -> p.p_setup_s) passes));
        ("wall_s", median walls);
        ("p50_ms", 1e3 *. median walls);
        ("peak_rss_mb", median (List.map (fun p -> p.p_rss_mb) passes));
      ]
    end
  in
  { input_digest = ppa_input_digest seed; metrics }

(* ------------------------------------------------------------------ *)
(* serve_predict: a [nproc]-shard Balance fleet of real `dco3d serve`   *)
(* processes, [nproc] client connections, an open loop at serve_rate   *)
(* then closed-loop bursts.                                             *)
(* ------------------------------------------------------------------ *)

(* the shards' default untrained model, built here as the reference *)
let serve_predictor () =
  let net =
    SiaUNet.create (Rng.create serve_model_seed)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  { Predictor.net; input_hw = serve_input_hw; label_scale = 1.0 }

(* Request stream of one connection: a hot set drawn first, then fresh
   (cold) inputs; every [serve_hot_every]-th request repeats the hot
   set, round-robin.  Re-creating a stream replays it exactly. *)
type stream = {
  rng : Rng.t;
  hot : (T.t * T.t) array;
  mutable colds : int;
}

let draw rng =
  ( T.rand_uniform rng [| Fm.n_channels; serve_hw; serve_hw |],
    T.rand_uniform rng [| Fm.n_channels; serve_hw; serve_hw |] )

let stream ~seed c =
  let rng = Rng.create ((seed * 1009) + c) in
  let hot = Array.init serve_hot_size (fun _ -> draw rng) in
  { rng; hot; colds = 0 }

type kind = Hot of int | Cold of int

let next_request st k =
  if k mod serve_hot_every = serve_hot_every - 1 then
    let i = k / serve_hot_every mod serve_hot_size in
    (Hot i, st.hot.(i))
  else begin
    let j = st.colds in
    st.colds <- j + 1;
    (Cold j, draw st.rng)
  end

type sample = {
  s_kind : kind;
  s_reply : string option;  (** reply digest; None = not [Ok] *)
  s_latency_ms : float;  (** from the due time; infinite when failed *)
  s_rtt_ms : float;
  s_late_ms : float;  (** send time minus due time *)
}

type conn = {
  cl : Client.t;
  st : stream;
  mutable k : int;
  mutable samples : sample list;
}

let send c ~due =
  let kind, (fb, ft) = next_request c.st c.k in
  c.k <- c.k + 1;
  let wait = due -. now () in
  if wait > 0. then Thread.delay wait;
  let sent = now () in
  let outcome = Client.predict c.cl fb ft in
  let back = now () in
  let reply =
    match outcome with
    | Client.Ok { c_bottom; c_top; _ } -> Some (digest_tensors [ c_bottom; c_top ])
    | Client.Overloaded _ | Client.Timed_out | Client.Disconnected -> None
  in
  let s =
    {
      s_kind = kind;
      s_reply = reply;
      s_latency_ms = (if reply = None then infinity else (back -. due) *. 1e3);
      s_rtt_ms = (back -. sent) *. 1e3;
      s_late_ms = (sent -. due) *. 1e3;
    }
  in
  c.samples <- s :: c.samples;
  s

let parallel_conns conns f =
  List.iter Thread.join (List.mapi (fun i c -> Thread.create (fun () -> f i c) ()) conns)

(* Open loop: connection [i] sends request [k] at
   t0 + (k * n + i) / rate, whatever the replies do. *)
let open_loop conns ~seconds =
  let n = List.length conns in
  let per_conn = max 1 (int_of_float (serve_rate *. seconds /. float_of_int n)) in
  let t0 = now () +. 0.05 in
  let out = Array.make n [] in
  parallel_conns conns (fun i c ->
      for k = 0 to per_conn - 1 do
        let due = t0 +. (float_of_int ((k * n) + i) /. serve_rate) in
        out.(i) <- send c ~due :: out.(i)
      done);
  List.concat (Array.to_list out)

(* Closed loop: every connection sends [serve_burst] requests back to
   back; the burst's wall time is one saturation sample. *)
let closed_loop conns ~seconds =
  repeat ~min:3 ~seconds (fun () ->
      let b0 = now () in
      parallel_conns conns (fun _ c ->
          for _ = 1 to serve_burst do
            ignore (send c ~due:(now ()))
          done);
      now () -. b0)

let fleet_start ~exe ~tmp ~name ~n =
  let sock = Filename.concat tmp (name ^ ".sock") in
  let ctl = Filename.concat tmp (name ^ ".ctl") in
  let argv_of i =
    [|
      exe; "serve"; "--shard-of"; ctl; "--shard-id"; string_of_int i;
      "--seed"; string_of_int serve_model_seed;
      "--input-hw"; string_of_int serve_input_hw;
    |]
  in
  let b =
    Balance.start
      (Balance.default_config ~address:(Server.Unix_path sock) ~ctl_path:ctl
         ~n_shards:n)
      ~argv_of
  in
  if not (Balance.await_live ~timeout_s:60. b n) then begin
    Balance.stop b;
    failwith "serve_predict: the fleet did not come up"
  end;
  b

let fleet_rss b =
  List.fold_left (fun a s -> a +. peak_rss_mb s.Balance.si_pid) 0. (Balance.slots b)

let connect b ~seed ~fingerprint ~n =
  List.init n (fun c ->
      let cl = Client.connect (Balance.bound_addr b) in
      let fp, _, _ = Client.hello cl in
      operation
        [ (fp = fingerprint, "serve_predict: a shard serves another model") ];
      { cl; st = stream ~seed c; k = 0; samples = [] })

type serve_pass = {
  v_open : sample list;
  v_bursts : float list;  (** closed-loop burst walls, s *)
}

let serve_pass conns ~seconds =
  let v_open = open_loop conns ~seconds:(0.6 *. seconds) in
  let v_bursts = closed_loop conns ~seconds:(0.4 *. seconds) in
  { v_open; v_bursts }

(* Per-shard counters over the wire, one snapshot per shard reached. *)
let fleet_stats conns =
  let by_shard = Hashtbl.create 4 in
  List.iter
    (fun c ->
      let st = Client.stats c.cl in
      let get k = Option.value ~default:0. (List.assoc_opt k st) in
      Hashtbl.replace by_shard (get "shard_id") get)
    conns;
  let sum k = Hashtbl.fold (fun _ get a -> a +. get k) by_shard 0. in
  [
    ("serve.cache_hit_ratio", ratio (sum "cache_hits") (sum "requests"));
    ("serve.batch_size", ratio (sum "cache_misses") (sum "batches"));
    ("serve.overloaded", sum "overloaded");
  ]

(* Check every reply against a local Predictor.predict on the
   regenerated inputs, [verify_chunk] inputs at a time spread over the
   pool's domains (each predict runs on one domain, as on a one-job
   shard).  Returns the mean local predict time per distinct input. *)
let verify_chunk = 16

let verify predictor ~seed conns =
  let t_local = ref 0. and n_local = ref 0 in
  let predict pairs =
    let out =
      Pool.map_array ~chunk:1
        (fun (fb, ft) ->
          let t0 = now () in
          let a, b = Predictor.predict predictor fb ft in
          (digest_tensors [ a; b ], (now () -. t0) *. 1e3))
        pairs
    in
    Array.iter (fun (_, ms) -> t_local := !t_local +. ms) out;
    n_local := !n_local + Array.length pairs;
    Array.map fst out
  in
  let expected st_idx (colds : int) =
    let st = stream ~seed st_idx in
    let hot = predict st.hot in
    let cold = Array.make colds "" in
    let j = ref 0 in
    while !j < colds do
      let m = min verify_chunk (colds - !j) in
      let d = predict (Array.init m (fun _ -> draw st.rng)) in
      Array.blit d 0 cold !j m;
      j := !j + m
    done;
    (hot, cold)
  in
  List.iteri
    (fun i c ->
      let hot, cold = expected i c.st.colds in
      List.iter
        (fun s ->
          let want = match s.s_kind with Hot h -> hot.(h) | Cold j -> cold.(j) in
          operation
            [
              ( s.s_reply <> None,
                "serve_predict: a request was refused, timed out or disconnected" );
              ( s.s_reply = None || s.s_reply = Some want,
                "serve_predict: a reply differs from local Predictor.predict" );
            ])
        c.samples)
    conns;
  ratio !t_local (float_of_int !n_local)

let serve_input_digest seed =
  let b = Buffer.create 64 in
  for c = 0 to 1 do
    let st = stream ~seed c in
    let reqs = List.init 8 (fun k -> snd (next_request st k)) in
    Buffer.add_string b
      (digest_tensors (List.concat_map (fun (x, y) -> [ x; y ]) reqs))
  done;
  Buffer.add_string b (Printf.sprintf "%g/%d/%d" serve_rate serve_hot_every serve_hot_size);
  Digest.to_hex (Digest.string (Buffer.contents b))

let serve_predict ~exe ~tmp ~seed ~seconds ~trace =
  let n = Pool.jobs () in
  (* the fleet computes [n] ways: [n] shards of one job each.  Shards
     inheriting [n] jobs put n*n domains on n cores, and the stop-the-
     world minor collections of a shard whose domain was descheduled
     then waited for it. *)
  Pool.set_jobs n;
  Unix.putenv "DCO3D_JOBS" "1";
  let predictor = serve_predictor () in
  let fingerprint = Predictor.fingerprint predictor in
  let start name =
    let t0 = now () in
    let b = fleet_start ~exe ~tmp ~name ~n in
    (b, now () -. t0)
  in
  let with_fleet name f =
    let b, setup = start name in
    Fun.protect ~finally:(fun () -> Balance.stop b) (fun () -> f b setup)
  in
  (* one measured pass on a running fleet; replies are verified after
     the timed phases, peak RSS is read before verification *)
  let run_pass b =
    let conns = connect b ~seed ~fingerprint ~n in
    let p = serve_pass conns ~seconds in
    let rss = peak_rss_mb 0 +. fleet_rss b in
    let stats = fleet_stats conns in
    (* the check is not part of the traced pass *)
    Obs.disable ();
    let v0 = now () in
    let local_ms = verify predictor ~seed conns in
    Printf.eprintf "perfbench: serve_predict verified %d replies in %.1f s\n%!"
      (List.fold_left (fun a c -> a + List.length c.samples) 0 conns)
      (now () -. v0);
    List.iter (fun c -> Client.close c.cl) conns;
    (p, rss, stats, local_ms)
  in
  let metrics =
    if trace then begin
      let untraced, _, _, _ = with_fleet "untraced" (fun b _ -> run_pass b) in
      (* the traced pass also records inside the shards: they inherit
         DCO3D_PROFILE at spawn and write <profile>.shard<i> when they
         drain at [Balance.stop]; their spans and counters join this
         process's in the layer metrics *)
      let profile = Filename.concat tmp "shard-profile.txt" in
      Unix.putenv "DCO3D_PROFILE" profile;
      Obs.reset ();
      Obs.enable ();
      let p, _, stats, local_ms = with_fleet "traced" (fun b _ -> run_pass b) in
      let profiles =
        List.length
          (List.filter
             (fun i -> read_profile (Printf.sprintf "%s.shard%d" profile i))
             (List.init n Fun.id))
      in
      operation
        [
          ( profiles = n,
            Printf.sprintf "serve_predict: %d of %d shards wrote a profile" profiles n );
        ];
      let lat = List.map (fun s -> s.s_latency_ms) p.v_open in
      let nlat = List.length lat in
      (* highest percentile with at least ten samples beyond it *)
      let tail_q =
        List.find_opt
          (fun q -> float_of_int nlat *. (1. -. q) >= 10.)
          [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]
        |> Option.value ~default:0.5
      in
      let burst = float_of_int (serve_burst * n) in
      [
        ("serve.rtt_ms", median (List.map (fun s -> s.s_rtt_ms) p.v_open));
        ("serve.local_predict_ms", local_ms);
        ("serve.shard_batch_ms", span_mean_ms "serve/batch");
        ("serve.tail_ms", quantile tail_q lat);
        ("serve.tail_pct", 100. *. tail_q);
        ("serve.tail_n", float_of_int nlat);
        ("serve.gen_late_ms", mean (List.map (fun s -> s.s_late_ms) p.v_open));
        ("serve.sat_rps", burst /. median p.v_bursts);
        ( "obs.trace_overhead_pct",
          overhead_pct ~untraced:(median untraced.v_bursts)
            ~traced:(median p.v_bursts) );
      ]
      @ stats @ layer_metrics ()
    end
    else begin
      (* set-up is a cold fleet start; take the median of five *)
      let setups =
        List.init 4 (fun i ->
            let b, s = start (Printf.sprintf "setup%d" i) in
            Balance.stop b;
            s)
      in
      with_fleet "measure" (fun b setup ->
          let p, rss, _, _ = run_pass b in
          [
            ("setup_s", median (setup :: setups));
            ("wall_s", median p.v_bursts);
            ("p50_ms", median (List.map (fun s -> s.s_latency_ms) p.v_open));
            ("peak_rss_mb", rss);
          ])
    end
  in
  { input_digest = serve_input_digest seed; metrics }

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and tmp = ref "" and exe = ref "" and digest = ref false in
  let list_metrics = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "dco3d_dma|ppa_matrix|serve_predict");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer");
      ("--tmp", Arg.Set_string tmp, "scratch directory (removed by the caller)");
      ("--dco3d", Arg.Set_string exe, "path of the dco3d executable");
      ("--digest", Arg.Set digest, "print the input digest only");
      ("--metrics", Arg.Set list_metrics, "print the metric names only");
      ("--no-baseline", Arg.Clear baseline, "traced pass only (job-count legs)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --tmp DIR --dco3d EXE";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let tmp = !tmp in
  let names l = String.concat ", " (List.map (fun (n, _) -> json_string n) l) in
  if !list_metrics then
    Printf.printf "{\"end_to_end\": [%s], \"per_layer\": [%s], \"serve_rate\": %g}\n"
      (names end_to_end_units) (names per_layer_units) serve_rate
  else begin
    let input_digest, run =
      match !workload with
      | "dco3d_dma" -> (dma_input_digest, fun () -> dco3d_dma ~seed ~seconds ~trace)
      | "ppa_matrix" ->
          (ppa_input_digest, fun () -> ppa_matrix ~tmp ~seed ~seconds ~trace)
      | "serve_predict" ->
          ( serve_input_digest,
            fun () -> serve_predict ~exe:!exe ~tmp ~seed ~seconds ~trace )
      | w ->
          prerr_endline ("unknown workload " ^ w);
          exit 2
    in
    if !digest then
      Printf.printf "{\"input_digest\": %s}\n" (json_string (input_digest seed))
    else begin
      let r = run () in
      let units = if trace then per_layer_units else end_to_end_units in
      let metrics =
        List.map
          (fun (name, unit) ->
            let v = Option.value ~default:0. (List.assoc_opt name r.metrics) in
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
              (json_float v) (json_string unit))
          units
      in
      Printf.printf
        "{\"input_digest\": %s, \"attempted\": %d, \"failed\": %d, \"problems\": \
         [%s], \"jobs\": %d, \"effective_jobs\": %d, \"ocaml\": %s, \"metrics\": \
         {%s}}\n\
         %!"
        (json_string r.input_digest) !attempted !failed
        (String.concat ", " (List.map json_string !problems))
        (Pool.jobs ()) (Pool.effective_jobs ()) (json_string Sys.ocaml_version)
        (String.concat ", " metrics)
    end
  end
