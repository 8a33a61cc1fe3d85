(* DCO-3D benchmark harness: regenerates every table and figure of the
   paper's evaluation (section V) on the simulated substrate, plus
   bechamel microbenchmarks of the core kernels.

   Scaling knobs (environment variables):
     DCO3D_SCALE      design scale factor        (default 0.15; paper = 1.0)
     DCO3D_SAMPLES    dataset layouts per design (default 8;    paper = 300)
     DCO3D_EPOCHS     predictor training epochs  (default 8)
     DCO3D_BO_ITERS   Bayesian-opt evaluations   (default 8)
     DCO3D_DCO_ITERS  Algorithm-2 gradient steps (default 40)
     DCO3D_DESIGNS    comma-separated subset     (default all six)
     DCO3D_ONLY       comma-separated experiment subset
                      (table1,table2,fig2,fig5a,fig5b,fig5c,alg2,fig6,fig7,
                       table3,ablation,kernels,route,predict)

   Usage: dune exec bench/main.exe *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Nl = Dco3d_netlist.Netlist
module Gen = Dco3d_netlist.Generator
module P = Dco3d_place
module Router = Dco3d_route.Router
module Fm = Dco3d_congestion.Feature_maps
module Metrics = Dco3d_congestion.Metrics
module Flow = Dco3d_flow.Flow
module Thermal = Dco3d_thermal.Thermal
module Dataset = Dco3d_core.Dataset
module Predictor = Dco3d_core.Predictor
module Dco = Dco3d_core.Dco
module Spreader = Dco3d_core.Spreader
module SiaUNet = Dco3d_nn.Siamese_unet
module Obs = Dco3d_obs.Obs
module Server = Dco3d_serve.Server
module Balance = Dco3d_serve.Balance
module Client = Dco3d_serve.Client

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let scale = env_float "DCO3D_SCALE" 0.15
let n_samples = env_int "DCO3D_SAMPLES" 8
let epochs = env_int "DCO3D_EPOCHS" 8
let bo_iters = env_int "DCO3D_BO_ITERS" 8
let dco_iters = env_int "DCO3D_DCO_ITERS" 40

let designs =
  match Sys.getenv_opt "DCO3D_DESIGNS" with
  | Some s -> String.split_on_char ',' s
  | None -> [ "DMA"; "AES"; "ECG"; "LDPC"; "VGA"; "Rocket" ]

let only =
  match Sys.getenv_opt "DCO3D_ONLY" with
  | Some s -> Some (String.split_on_char ',' s)
  | None -> None

let enabled name =
  match only with None -> true | Some l -> List.mem name l

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s done in %.1f s]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* shared per-design environments (built lazily, reused across
   experiments)                                                        *)
(* ------------------------------------------------------------------ *)

type design_env = {
  name : string;
  nl : Nl.t;
  ctx : Flow.context;
  mutable pin3d : Flow.result option;
  mutable dataset : Dataset.t option;
}

let envs : (string, design_env) Hashtbl.t = Hashtbl.create 8

let env_of name =
  match Hashtbl.find_opt envs name with
  | Some e -> e
  | None ->
      let nl = Gen.generate ~scale ~seed:42 (Gen.profile name) in
      let ctx = Flow.make_context nl in
      let e = { name; nl; ctx; pin3d = None; dataset = None } in
      Hashtbl.replace envs name e;
      e

let pin3d_of e =
  match e.pin3d with
  | Some r -> r
  | None ->
      let r = Flow.run_pin3d e.ctx in
      e.pin3d <- Some r;
      r

let dataset_of e =
  match e.dataset with
  | Some d -> d
  | None ->
      let d =
        timed (e.name ^ "/dataset") (fun () ->
            Dataset.build ~n_samples ~seed:7 ~route_cfg:e.ctx.Flow.route_cfg
              e.nl e.ctx.Flow.fp)
      in
      e.dataset <- Some d;
      d

(* one predictor shared by the prediction experiments and DCO, trained
   on the union of every requested design's dataset (the paper trains
   one model over its whole dataset) *)
let predictor_and_report =
  lazy
    (let ds = List.map (fun name -> dataset_of (env_of name)) designs in
     let merged = Dataset.merge ds in
     let train, test = Dataset.split ~test_fraction:0.2 ~seed:1 merged in
     let t0 = Unix.gettimeofday () in
     let p, rep = Predictor.train ~epochs ~input_hw:32 ~seed:3 ~train ~test () in
     Printf.printf
       "[predictor trained on %d layouts (+8x augmentation) in %.1f s]\n%!"
       (Array.length train.Dataset.samples)
       (Unix.gettimeofday () -. t0);
     (p, rep, test))

(* ------------------------------------------------------------------ *)
(* Table I: placement-parameter sampling coverage                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I - 3D placement parameters (sampling coverage)";
  print_endline
    "Sampling 300 knob configurations; every Table-I parameter with its\n\
     observed range (dataset construction draws from these):";
  let rng = Rng.create 99 in
  let samples = List.init 300 (fun _ -> P.Params.sample rng) in
  let assocs = List.map P.Params.to_assoc samples in
  let keys = List.map fst (P.Params.to_assoc P.Params.default) in
  List.iter
    (fun key ->
      let values = List.map (fun a -> List.assoc key a) assocs in
      let distinct = List.sort_uniq compare values in
      match float_of_string_opt (List.hd values) with
      | Some _ ->
          let floats = List.filter_map float_of_string_opt values in
          let lo = List.fold_left Float.min infinity floats in
          let hi = List.fold_left Float.max neg_infinity floats in
          Printf.printf "  %-38s range [%g, %g], %d distinct\n" key lo hi
            (List.length distinct)
      | None ->
          Printf.printf "  %-38s values {%s}\n" key
            (String.concat ", " distinct))
    keys

(* ------------------------------------------------------------------ *)
(* Table II: GNN node features                                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table II - handcrafted GNN node features";
  let e = env_of (List.hd designs) in
  let r = pin3d_of e in
  let f = Spreader.node_features r.Flow.placement in
  let names =
    [| "wst slack"; "wst output slew"; "wst input slew"; "drv net power";
       "int power"; "leakage"; "width"; "height"; "x0/W"; "y0/H"; "tier" |]
  in
  Printf.printf "design %s, %d cells, %d features per node:\n" e.name
    (T.dim f 0) (T.dim f 1);
  for k = 0 to T.dim f 1 - 1 do
    let n = T.dim f 0 in
    let acc = ref 0. and lo = ref infinity and hi = ref neg_infinity in
    for c = 0 to n - 1 do
      let v = T.get2 f c k in
      acc := !acc +. v;
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    Printf.printf "  %-16s mean %8.3f  range [%8.3f, %8.3f]%s\n" names.(k)
      (!acc /. float_of_int n) !lo !hi
      (if k >= 8 then "   (position augmentation)" else "")
  done

(* ------------------------------------------------------------------ *)
(* Fig. 2: input features and ground truth                              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Fig. 2 - input feature maps and ground-truth congestion";
  let e = env_of (if List.mem "AES" designs then "AES" else List.hd designs) in
  let d = dataset_of e in
  let s = d.Dataset.samples.(0) in
  Printf.printf "design %s, one 3D global placement, %dx%d GCell maps:\n"
    e.name d.Dataset.nx d.Dataset.ny;
  Printf.printf "  %-16s %10s %10s %9s   (bottom die | top die)\n" "channel"
    "mean" "max" "nonzero%";
  let stats m =
    let nz = ref 0 in
    T.iteri_flat (fun _ v -> if v > 1e-9 then incr nz) m;
    (T.mean m, T.max_elt m, 100. *. float_of_int !nz /. float_of_int (T.numel m))
  in
  Array.iteri
    (fun ch name ->
      let mb, xb, nb = stats (T.channel s.Dataset.f_bottom ch) in
      let mt, xt, nt = stats (T.channel s.Dataset.f_top ch) in
      Printf.printf "  %-16s %10.3f %10.3f %8.1f%% | %.3f %.3f %.1f%%\n" name mb
        xb nb mt xt nt)
    Fm.channel_names;
  let mb, xb, nb = stats s.Dataset.c_bottom in
  let mt, xt, nt = stats s.Dataset.c_top in
  Printf.printf "  %-16s %10.3f %10.3f %8.1f%% | %.3f %.3f %.1f%%\n"
    "ground truth" mb xb nb mt xt nt

(* ------------------------------------------------------------------ *)
(* Fig. 5a: training curves                                             *)
(* ------------------------------------------------------------------ *)

let fig5a () =
  section "Fig. 5a - predictor training and testing loss curves (Eq. 4)";
  let _, rep, _ = Lazy.force predictor_and_report in
  print_endline "epoch  train-loss  test-loss";
  Array.iteri
    (fun epoch l ->
      Printf.printf "%5d  %10.4f  %10.4f\n" (epoch + 1) l
        rep.Predictor.test_loss.(epoch))
    rep.Predictor.train_loss;
  let last = rep.Predictor.epochs - 1 in
  Printf.printf
    "shape check: train %.4f -> %.4f (decreasing), test tracks train (%.4f)\n"
    rep.Predictor.train_loss.(0)
    rep.Predictor.train_loss.(last)
    rep.Predictor.test_loss.(last)

(* ------------------------------------------------------------------ *)
(* Fig. 5b: NRMSE / SSIM distributions                                  *)
(* ------------------------------------------------------------------ *)

let fig5b () =
  section "Fig. 5b - NRMSE and SSIM over the held-out test set";
  let p, _, test = Lazy.force predictor_and_report in
  let metrics = Predictor.evaluate p test in
  let nrmse = List.map fst metrics and ssim = List.map snd metrics in
  let hist name ~lo ~hi values =
    let h = Metrics.histogram ~bins:10 ~lo ~hi values in
    Printf.printf "  %s histogram [%g..%g]:" name lo hi;
    Array.iter (fun c -> Printf.printf " %3d" c) h;
    print_newline ()
  in
  hist "NRMSE" ~lo:0. ~hi:0.5 nrmse;
  hist "SSIM " ~lo:0. ~hi:1. ssim;
  Printf.printf "  NRMSE < 0.2: %5.1f%% of %d test maps   (paper: > 85%%)\n"
    (100. *. Metrics.fraction_below 0.2 nrmse)
    (List.length metrics);
  Printf.printf
    "  SSIM  > 0.8: %5.1f%% of test maps (> 0.7 sufficient: %5.1f%%; paper: > \
     85%% above 0.8)\n"
    (100. *. Metrics.fraction_above 0.8 ssim)
    (100. *. Metrics.fraction_above 0.7 ssim)

(* ------------------------------------------------------------------ *)
(* Fig. 5c: ours vs the RUDY estimator                                  *)
(* ------------------------------------------------------------------ *)

let fig5c () =
  section "Fig. 5c - prediction vs RUDY vs ground truth";
  let p, _, test = Lazy.force predictor_and_report in
  if Array.length test.Dataset.samples = 0 then
    print_endline "  (no test samples)"
  else begin
    let score (s : Dataset.sample) =
      let pred, _ = Predictor.predict p s.Dataset.f_bottom s.Dataset.f_top in
      let truth = s.Dataset.c_bottom in
      let rudy =
        T.add (T.channel s.Dataset.f_bottom 2) (T.channel s.Dataset.f_bottom 3)
      in
      let n01 = Metrics.normalize01 in
      ( Metrics.ssim (n01 pred) (n01 truth),
        Metrics.pearson pred truth,
        Metrics.ssim (n01 rudy) (n01 truth),
        Metrics.pearson rudy truth )
    in
    let scores = Array.map score test.Dataset.samples in
    let avg f =
      Array.fold_left (fun a s -> a +. f s) 0. scores
      /. float_of_int (Array.length scores)
    in
    Printf.printf "  averaged over %d test layouts (maps normalized to [0,1]):\n"
      (Array.length scores);
    Printf.printf "    ours vs ground truth: SSIM %.3f, pearson %.3f\n"
      (avg (fun (a, _, _, _) -> a))
      (avg (fun (_, b, _, _) -> b));
    Printf.printf "    RUDY vs ground truth: SSIM %.3f, pearson %.3f\n"
      (avg (fun (_, _, c, _) -> c))
      (avg (fun (_, _, _, d) -> d));
    print_endline
      "  shape check: the learned predictor beats the classical RUDY\n\
      \  estimator on both metrics (paper: far higher similarity)."
  end

(* ------------------------------------------------------------------ *)
(* Algorithm 2 convergence trace                                        *)
(* ------------------------------------------------------------------ *)

let dco_results : (string, Flow.result * Dco.report) Hashtbl.t =
  Hashtbl.create 8

(* Algorithm 2 drives gradients through the predictor, so it gets a
   model fit to the target design's own layout distribution — the
   paper's 300-layouts-per-design dataset gives its single model the
   same per-design densities; our scaled merged model cannot. *)
let design_predictors : (string, Predictor.t) Hashtbl.t = Hashtbl.create 8

let design_predictor_of name =
  match Hashtbl.find_opt design_predictors name with
  | Some p -> p
  | None ->
      let e = env_of name in
      let d = dataset_of e in
      let train, test = Dataset.split ~test_fraction:0.2 ~seed:1 d in
      let p, _ =
        Predictor.train ~epochs:(epochs + 4) ~input_hw:32 ~seed:3 ~train ~test
          ()
      in
      Hashtbl.replace design_predictors name p;
      p

let dco_of name =
  match Hashtbl.find_opt dco_results name with
  | Some r -> r
  | None ->
      let e = env_of name in
      let pin3d = pin3d_of e in
      let predictor = design_predictor_of name in
      let config = { Dco.default_config with Dco.iterations = dco_iters } in
      let optimized, rep =
        Dco.optimize ~config ~predictor pin3d.Flow.placement
      in
      let dco = Flow.run_with_placement e.ctx ~name:"DCO-3D (ours)" optimized in
      (* GR-validated acceptance: the flow routes the spread placement
         anyway; if global routing does not confirm the predicted
         congestion gain, continue from the unmodified placement (any
         production flow would gate an optional optimization step the
         same way).  The paper's stronger predictor does not need this
         guard; ours sometimes does — see EXPERIMENTS.md. *)
      let res, accepted = Flow.accept_dco ~pin3d dco in
      if not accepted then
        Printf.printf
          "[%s: GR rejected the DCO placement (%d > %d overflow) - keeping \
           Pin-3D's]\n%!"
          name dco.Flow.place_stage.Flow.overflow
          pin3d.Flow.place_stage.Flow.overflow;
      Hashtbl.replace dco_results name (res, rep);
      (res, rep)

let alg2 () =
  section "Algorithm 2 / Fig. 4 - differentiable optimization trace";
  let name = List.hd designs in
  let _, rep = dco_of name in
  Printf.printf "design %s, %d iterations:\n" name (Array.length rep.Dco.stats);
  print_endline "  iter   total      disp      ovlp       cut      cong";
  let n = Array.length rep.Dco.stats in
  Array.iteri
    (fun i (s : Dco.iter_stats) ->
      if i mod (max 1 (n / 12)) = 0 || i = n - 1 then
        Printf.printf "  %4d  %8.4f  %8.4f  %8.5f  %8.4f  %8.4f\n" i s.Dco.total
          s.Dco.disp s.Dco.ovlp s.Dco.cut s.Dco.cong)
    rep.Dco.stats;
  Printf.printf
    "  predicted congestion %.4f -> %.4f, cut %d -> %d, %d tier moves, mean \
     displacement %.3f um\n"
    rep.Dco.predicted_cong_start rep.Dco.predicted_cong_end rep.Dco.cut_start
    rep.Dco.cut_end rep.Dco.tier_moves rep.Dco.mean_displacement

(* ------------------------------------------------------------------ *)
(* Fig. 6 / Fig. 7: LDPC congestion and density maps                    *)
(* ------------------------------------------------------------------ *)

let map_summary label (m : T.t) =
  let nz = ref 0 in
  T.iteri_flat (fun _ v -> if v > 1e-9 then incr nz) m;
  Printf.printf "    %-22s sum %9.1f  max %7.2f  hotspot bins %4d\n" label
    (T.sum m) (T.max_elt m) !nz

let fig6_name = "LDPC"

let fig6 () =
  section "Fig. 6 - post-route congestion maps, Pin-3D vs DCO-3D (LDPC)";
  let name = if List.mem fig6_name designs then fig6_name else List.hd designs in
  let e = env_of name in
  let pin3d = pin3d_of e in
  let dco, _ = dco_of name in
  Printf.printf "  %s (Pin-3D):\n" name;
  map_summary "bottom die overflow" pin3d.Flow.route.Router.congestion.(0);
  map_summary "top die overflow" pin3d.Flow.route.Router.congestion.(1);
  Printf.printf "  %s (DCO-3D):\n" name;
  map_summary "bottom die overflow" dco.Flow.route.Router.congestion.(0);
  map_summary "top die overflow" dco.Flow.route.Router.congestion.(1);
  print_endline "  bottom-die overflow heat maps (shared scale):";
  print_endline
    (Dco3d_congestion.Ascii_map.render_pair ~width:72
       ~labels:("Pin-3D", "DCO-3D")
       pin3d.Flow.route.Router.congestion.(0)
       dco.Flow.route.Router.congestion.(0));
  print_endline
    "  shape check: DCO-3D's maps carry less total overflow and fewer\n\
    \  hotspot bins than Pin-3D's (paper Fig. 6)."

let fig7 () =
  section "Fig. 7 - post-route density maps, Pin-3D vs DCO-3D (LDPC)";
  let name = if List.mem fig6_name designs then fig6_name else List.hd designs in
  let e = env_of name in
  let pin3d = pin3d_of e in
  let dco, _ = dco_of name in
  let nx = e.ctx.Flow.fp.P.Floorplan.gcell_nx in
  let ny = e.ctx.Flow.fp.P.Floorplan.gcell_ny in
  let peak_and_over p tier =
    let d = P.Placement.density_map p ~tier ~nx ~ny in
    let over = ref 0 in
    T.iteri_flat (fun _ v -> if v > 0.9 then incr over) d;
    (T.max_elt d, !over)
  in
  List.iter
    (fun (label, r) ->
      Printf.printf "  %s:\n" label;
      for tier = 0 to 1 do
        let peak, over = peak_and_over r.Flow.placement tier in
        Printf.printf "    die %d: peak density %.2f, bins over 0.9: %d\n" tier
          peak over
      done)
    [ ("Pin-3D", pin3d); ("DCO-3D", dco) ];
  print_endline
    "  shape check: DCO-3D distributes cells more evenly (fewer dense bins)."

(* ------------------------------------------------------------------ *)
(* Table III                                                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table III - optimization results over the benchmark suite";
  Printf.printf
    "design scale %.2f (paper = 1.0); same seed, routing fabric and clock \
     across the flows of a design.\n\n"
    scale;
  let header () =
    Printf.printf "%-16s | %9s %7s %7s %7s | %9s %11s %9s %12s %7s %7s\n"
      "flow" "overflow" "gcell%" "H ovf" "V ovf" "wns(ps)" "tns(ps)"
      "power(mW)" "WL(um)" "Tpk(C)" "Tavg(C)"
  in
  let row (r : Flow.result) =
    Printf.printf
      "%-16s | %9d %6.2f%% %7d %7d | %9.2f %11.1f %9.3f %12.1f %7.1f %7.1f\n"
      r.Flow.flow_name r.Flow.place_stage.Flow.overflow
      r.Flow.place_stage.Flow.ovf_gcell_pct r.Flow.place_stage.Flow.ovf_h
      r.Flow.place_stage.Flow.ovf_v r.Flow.signoff.Flow.wns_ps
      r.Flow.signoff.Flow.tns_ps r.Flow.signoff.Flow.power_mw
      r.Flow.signoff.Flow.wirelength_um r.Flow.signoff.Flow.peak_temp_c
      r.Flow.signoff.Flow.avg_temp_c
  in
  let pct a b = 100. *. (a -. b) /. Float.max 1e-9 (abs_float b) in
  List.iter
    (fun name ->
      let e = env_of name in
      Printf.printf "--- %s (#cells: %d, #nets: %d, #IO: %d) ---\n" name
        (Nl.n_cells e.nl) (Nl.n_nets e.nl) (Nl.n_ios e.nl);
      header ();
      let pin3d = timed (name ^ "/Pin3D") (fun () -> pin3d_of e) in
      row pin3d;
      let cong = timed (name ^ "/Cong") (fun () -> Flow.run_pin3d_cong e.ctx) in
      row cong;
      let bo =
        timed (name ^ "/BO") (fun () ->
            Flow.run_pin3d_bo ~iterations:bo_iters e.ctx)
      in
      row bo;
      let dco, _ = timed (name ^ "/DCO") (fun () -> dco_of name) in
      row dco;
      Printf.printf
        "DCO-3D vs Pin-3D: overflow %+.1f%%, wns %+.1f%%, tns %+.1f%%, power \
         %+.1f%%, WL %+.1f%%, peak temp %+.1f C\n\n"
        (pct
           (float_of_int dco.Flow.place_stage.Flow.overflow)
           (float_of_int pin3d.Flow.place_stage.Flow.overflow))
        (pct (-.dco.Flow.signoff.Flow.wns_ps) (-.pin3d.Flow.signoff.Flow.wns_ps))
        (pct (-.dco.Flow.signoff.Flow.tns_ps) (-.pin3d.Flow.signoff.Flow.tns_ps))
        (pct dco.Flow.signoff.Flow.power_mw pin3d.Flow.signoff.Flow.power_mw)
        (pct dco.Flow.signoff.Flow.wirelength_um
           pin3d.Flow.signoff.Flow.wirelength_um)
        (dco.Flow.signoff.Flow.peak_temp_c -. pin3d.Flow.signoff.Flow.peak_temp_c))
    designs

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation - what each Algorithm-2 ingredient buys";
  let name = List.hd designs in
  let e = env_of name in
  let pin3d = pin3d_of e in
  let predictor, _, _ = Lazy.force predictor_and_report in
  let run label config =
    let optimized, rep = Dco.optimize ~config ~predictor pin3d.Flow.placement in
    let res = Flow.run_with_placement e.ctx ~name:label optimized in
    Printf.printf
      "  %-24s overflow %6d  tns %10.1f  WL %10.1f  cut %5d  disp %.3f um\n%!"
      label res.Flow.place_stage.Flow.overflow res.Flow.signoff.Flow.tns_ps
      res.Flow.signoff.Flow.wirelength_um
      (P.Placement.cut_size res.Flow.placement)
      rep.Dco.mean_displacement
  in
  Printf.printf "  %-24s overflow %6d  tns %10.1f  WL %10.1f  cut %5d\n"
    "Pin-3D (no DCO)" pin3d.Flow.place_stage.Flow.overflow
    pin3d.Flow.signoff.Flow.tns_ps pin3d.Flow.signoff.Flow.wirelength_um
    (P.Placement.cut_size pin3d.Flow.placement);
  let base = { Dco.default_config with Dco.iterations = dco_iters } in
  run "DCO-3D (full)" base;
  run "DCO-3D (2D only, z frozen)" { base with Dco.freeze_z = true };
  run "DCO-3D (no displacement)" { base with Dco.alpha = 0. };
  run "DCO-3D (no cutsize)" { base with Dco.gamma = 0. };
  run "DCO-3D (no congestion)" { base with Dco.delta = 0. };
  print_endline
    "  shape check: removing the congestion loss removes the overflow gain;\n\
    \  removing displacement lets wirelength blow up; removing cutsize\n\
    \  inflates the number of 3D nets (section V-C's co-optimization claim)."

(* ------------------------------------------------------------------ *)
(* Kernel microbenchmarks: sequential vs parallel                       *)
(* ------------------------------------------------------------------ *)

module Pool = Dco3d_parallel.Pool

(* Content digest of a kernel's numeric result.  Written to
   BENCH_kernels.digest (no timings, so the file is stable run-to-run)
   and compared across DCO3D_JOBS values by `make bench-deterministic`. *)
let digest_tensors ts =
  let buf = Buffer.create 4096 in
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Marshal.to_string (T.shape t, Array.init (T.numel t) (T.get_flat t))
           []))
    ts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A digest string as its character codes, so rows whose result is
   itself a digest go through [digest_tensors] like the rest. *)
let digest_floats dg =
  Array.init (String.length dg) (fun i -> float_of_int (Char.code dg.[i]))

(* Median-of-N timing.  These numbers feed bench_check's par_ms drift
   cap against the committed baseline, and on a loaded CI host the
   best-of-N minimum still jitters enough to trip a 15% cap — the
   median of three discards a whole outlier leg instead.  With fewer
   than three reps this degrades to the minimum. *)
let time_best reps f =
  let reps = max 1 reps in
  let samples = Array.make reps infinity in
  let result = ref None in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    samples.(i) <- Unix.gettimeofday () -. t0;
    if !result = None then result := Some r
  done;
  Array.sort compare samples;
  let t = if reps >= 3 then samples.(reps / 2) else samples.(0) in
  (t, Option.get !result)

type kernel_row = {
  k_name : string;
  k_size : string;
  k_flops : float option;
  k_seq_ms : float;
  k_par_ms : float;
  k_digest : string;
  k_ok : bool;
}

let kernels () =
  section "Kernel microbenchmarks (sequential vs parallel)";
  let target_jobs = Pool.jobs () in
  let e = env_of (List.hd designs) in
  let r = pin3d_of e in
  let p = r.Flow.placement in
  let rng = Rng.create 5 in
  let ma = T.rand_uniform rng [| 256; 256 |] in
  let mb = T.rand_uniform rng [| 256; 256 |] in
  let img = T.rand_uniform rng [| 8; 64; 64 |] in
  let w = T.randn rng [| 16; 8; 3; 3 |] in
  let gout = T.rand_uniform rng [| 16; 64; 64 |] in
  let timg = T.rand_uniform rng [| 8; 32; 32 |] in
  let tw = T.randn rng [| 8; 8; 4; 4 |] in
  (* the UNet's own conv shapes, drawn from a second stream so the rows
     above keep their inputs *)
  let urng = Rng.create 13 in
  let ux = T.rand_uniform urng [| 2; 8; 32; 32 |] in
  let uw = T.randn urng [| 8; 8; 3; 3 |] in
  let ug = T.rand_uniform urng [| 2; 8; 32; 32 |] in
  let utx = T.rand_uniform urng [| 2; 16; 16; 16 |] in
  let utw = T.randn urng [| 16; 8; 2; 2 |] in
  let conv_flops co ci kh kw oh ow =
    2. *. float_of_int (co * ci * kh * kw * oh * ow)
  in
  let cases =
    [
      ( "matmul",
        "256x256x256",
        Some (2. *. (256. ** 3.)),
        3,
        fun () -> [ T.matmul ma mb ] );
      ( "conv2d",
        "8x64x64 -> 16x64x64, 3x3",
        Some (conv_flops 16 8 3 3 64 64),
        3,
        fun () -> [ T.conv2d_batch ~pad:1 img ~weight:w ~bias:None ] );
      ( "conv2d_backward_input",
        "16x64x64 -> 8x64x64, 3x3",
        Some (conv_flops 16 8 3 3 64 64),
        3,
        fun () ->
          [
            T.conv2d_backward_input_batch ~pad:1 ~input_shape:[| 8; 64; 64 |]
              ~weight:w gout;
          ] );
      ( "conv2d_backward_weight",
        "16x8x3x3 over 64x64",
        Some (conv_flops 16 8 3 3 64 64),
        3,
        fun () ->
          [
            T.conv2d_backward_weight_batch ~pad:1 ~input:img
              ~weight_shape:[| 16; 8; 3; 3 |] gout;
          ] );
      ( "conv2d_transpose",
        "8x32x32 -> 8x64x64, 4x4 s2",
        Some (conv_flops 8 8 4 4 32 32),
        3,
        fun () -> [ T.conv2d_transpose_batch ~stride:2 ~pad:1 timg ~weight:tw ~bias:None ] );
      ( "unet_conv3x3",
        "2x8x32x32 -> 2x8x32x32, 3x3, fwd+bwd",
        Some (3. *. 2. *. conv_flops 8 8 3 3 32 32),
        5,
        fun () ->
          (* an 8 -> 8 conv of the UNet's full-resolution level over
             both dies: forward, backward-input and backward-weight *)
          [
            T.conv2d_batch ~pad:1 ux ~weight:uw ~bias:None;
            T.conv2d_backward_input_batch ~pad:1 ~input_shape:(T.shape ux)
              ~weight:uw ug;
            T.conv2d_backward_weight_batch ~pad:1 ~input:ux
              ~weight_shape:(T.shape uw) ug;
          ] );
      ( "unet_convT2x2",
        "2x16x16x16 -> 2x8x32x32, 2x2 s2",
        Some (2. *. conv_flops 8 16 2 2 16 16),
        5,
        fun () -> [ T.conv2d_transpose_batch ~stride:2 utx ~weight:utw ~bias:None ] );
      ( "rudy_map",
        Printf.sprintf "%s, 64x64 gcells" e.name,
        None,
        3,
        fun () ->
          [
            Dco3d_congestion.Rudy.rudy_map p ~tier:0
              ~kind:Dco3d_congestion.Rudy.All ~nx:64 ~ny:64;
          ] );
      ( "thermal_solve",
        Printf.sprintf "%s, 2x48x48 gcells" e.name,
        None,
        3,
        fun () ->
          let r = Thermal.solve_placement ~nx:48 ~ny:48 p in
          [ r.Thermal.grid ] );
      ( "corpus_gen",
        "dma + ecg-local + vga-macro @ 0.05",
        None,
        3,
        fun () ->
          (* digest the generated netlists themselves: the tensor packs
             each corpus point's content digest with its cell/net
             counts, so the seq-vs-par digest match proves corpus
             generation is jobs-invariant *)
          List.map
            (fun name ->
              let s =
                Dco3d_corpus.Corpus.scaled 0.05 (Dco3d_corpus.Corpus.find name)
              in
              let nl = Dco3d_corpus.Corpus.generate s in
              let dg = Dco3d_corpus.Corpus.netlist_digest nl in
              T.of_array1
                (Array.append (digest_floats dg)
                   [|
                     float_of_int (Nl.n_cells nl);
                     float_of_int (Nl.n_nets nl);
                   |]))
            [ "dma"; "ecg-local"; "vga-macro" ] );
      ( "train_step",
        "Siamese UNet 32x32 base 8, 4 Adam steps",
        None,
        5,
        fun () ->
          (* Algorithm 1's inner loop on the batch-native tape: both dies
             as one [2; 8; 32; 32] graph, forward + backward + Adam.  The
             digest is the trained-weights fingerprint. *)
          let net = SiaUNet.create (Rng.create 7) SiaUNet.default_config in
          let opt = Dco3d_autodiff.Optimizer.adam ~lr:2e-3 (SiaUNet.params net) in
          let data = Rng.create 8 in
          let feat () = T.rand_uniform data [| 1; Fm.n_channels; 32; 32 |] in
          let label () = T.rand_uniform data [| 1; 1; 32; 32 |] in
          let batches = List.init 4 (fun _ -> (feat (), feat (), label (), label ())) in
          List.iter
            (fun (f0, f1, t0, t1) ->
              let c0, c1 =
                SiaUNet.forward net (Dco3d_autodiff.Value.const f0)
                  (Dco3d_autodiff.Value.const f1)
              in
              Dco3d_autodiff.Value.backward (Predictor.eq4_loss c0 c1 t0 t1);
              Dco3d_autodiff.Optimizer.step opt)
            batches;
          [ T.of_array1 (digest_floats (SiaUNet.fingerprint net)) ] );
      ( "dco_iter",
        Printf.sprintf "%s, 3 Algorithm-2 iterations" e.name,
        None,
        3,
        fun () ->
          (* Algorithm 2 through a fixed (untrained) predictor; the
             digest covers every iteration's loss terms. *)
          let predictor =
            {
              Predictor.net = SiaUNet.create (Rng.create 9) SiaUNet.default_config;
              input_hw = 32;
              label_scale = 1.0;
            }
          in
          let config = { Dco.default_config with Dco.iterations = 3 } in
          let _, rep = Dco.optimize ~config ~predictor p in
          [
            T.of_array1
              (digest_floats
                 (Digest.to_hex (Digest.string (Marshal.to_string rep.Dco.stats []))));
          ] );
      ( "dataset_build",
        Printf.sprintf "%s, 4 layouts" e.name,
        None,
        3,
        fun () ->
          let d =
            Dataset.build ~n_samples:4 ~seed:11 ~route_cfg:e.ctx.Flow.route_cfg
              e.nl e.ctx.Flow.fp
          in
          Array.to_list d.Dataset.samples
          |> List.concat_map (fun s ->
                 [
                   s.Dataset.f_bottom; s.Dataset.f_top; s.Dataset.c_bottom;
                   s.Dataset.c_top;
                 ]) );
    ]
  in
  (* effective_jobs clamps to the hardware; on a small host the
     "parallel" leg may legitimately run the same schedule as the
     sequential one, so report both numbers honestly *)
  let effective = Pool.effective_jobs () in
  Printf.printf "  jobs: sequential=1 parallel=%d (effective %d of %d cores)\n"
    target_jobs effective
    (Domain.recommended_domain_count ());
  Printf.printf "  %-24s %-28s %9s %9s %8s %9s %s\n" "op" "size" "seq ms"
    "par ms" "speedup" "GFLOP/s" "digest match";
  let rows =
    List.map
      (fun (name, size, flops, reps, run) ->
        (* DCO3D_BENCH_REPS raises every case's repetition floor; more
           best-of-N samples tighten the seq/par ratio on noisy hosts *)
        let reps = max reps (env_int "DCO3D_BENCH_REPS" reps) in
        Pool.set_jobs 1;
        let seq_t, seq_r = time_best reps run in
        Pool.set_jobs target_jobs;
        let par_t, par_r = time_best reps run in
        (* With the hardware clamp at one effective job, both legs run
           the byte-identical inline schedule, so the true ratio is 1.0
           and any measured deviation is timing noise.  Fold the two
           legs' samples into one best time rather than reporting the
           noise as a speedup or a slowdown. *)
        let seq_t, par_t =
          if effective = 1 then
            let best = Float.min seq_t par_t in
            (best, best)
          else (seq_t, par_t)
        in
        let dseq = digest_tensors seq_r and dpar = digest_tensors par_r in
        let ok = String.equal dseq dpar in
        let gflops =
          match flops with
          | Some f -> Printf.sprintf "%9.3f" (f /. par_t /. 1e9)
          | None -> "        -"
        in
        Printf.printf "  %-24s %-28s %9.2f %9.2f %7.2fx %s %s\n%!" name size
          (seq_t *. 1e3) (par_t *. 1e3) (seq_t /. par_t) gflops
          (if ok then "ok" else "MISMATCH");
        {
          k_name = name;
          k_size = size;
          k_flops = flops;
          k_seq_ms = seq_t *. 1e3;
          k_par_ms = par_t *. 1e3;
          k_digest = dseq;
          k_ok = ok;
        })
      cases
  in
  if List.exists (fun k -> not k.k_ok) rows then begin
    prerr_endline
      "kernels: parallel result diverged from sequential result (digest \
       mismatch)";
    exit 1
  end;
  rows

(* ------------------------------------------------------------------ *)
(* Route benchmark: sequential vs parallel repair waves                 *)
(* ------------------------------------------------------------------ *)

let route_bench () =
  section "Route benchmark (sequential vs parallel repair waves)";
  let target_jobs = Pool.jobs () in
  let e = env_of (List.hd designs) in
  let r = pin3d_of e in
  let p = r.Flow.placement in
  let cfg = e.ctx.Flow.route_cfg in
  let fp = e.ctx.Flow.fp in
  let size =
    Printf.sprintf "%s, %dx%dx2 gcells" e.name fp.P.Floorplan.gcell_nx
      fp.P.Floorplan.gcell_ny
  in
  let effective = Pool.effective_jobs () in
  Printf.printf "  jobs: sequential=1 parallel=%d (effective %d of %d cores)\n"
    target_jobs effective
    (Domain.recommended_domain_count ());
  let reps = max 3 (env_int "DCO3D_BENCH_REPS" 3) in
  let run () = Router.route ~config:cfg p in
  Pool.set_jobs 1;
  let seq_t, seq_r = time_best reps run in
  Pool.set_jobs target_jobs;
  let par_t, par_r = time_best reps run in
  (* same honest-reporting rule as the kernels: one effective job means
     both legs ran the identical inline schedule *)
  let seq_t, par_t =
    if effective = 1 then
      let best = Float.min seq_t par_t in
      (best, best)
    else (seq_t, par_t)
  in
  let dseq = Router.digest seq_r and dpar = Router.digest par_r in
  let ok = String.equal dseq dpar in
  Printf.printf "  %-24s %-28s %9s %9s %8s %s\n" "op" "size" "seq ms" "par ms"
    "speedup" "digest match";
  Printf.printf "  %-24s %-28s %9.2f %9.2f %7.2fx %s\n%!" "route" size
    (seq_t *. 1e3) (par_t *. 1e3) (seq_t /. par_t)
    (if ok then "ok" else "MISMATCH");
  Printf.printf "    overflow %d (%.2f%% gcells), wirelength %.1f um, %d \
                 repair passes\n"
    seq_r.Router.overflow_total seq_r.Router.overflow_gcell_pct
    seq_r.Router.wirelength seq_r.Router.iterations_run;
  if not ok then begin
    prerr_endline
      "route: parallel repair diverged from sequential repair (digest \
       mismatch)";
    exit 1
  end;
  (* Incremental re-route after an ECO-sized perturbation (2% of cells
     nudged sub-GCell distances).  The row's headline ratio is cold
     re-route time over warm-start time on the same schedule,
     floor-gated at >= 2x by bench_check; the congestion-parity
     contract (warm overflow/wirelength within 5% of the cold route)
     and jobs-invariance of the warm digest are asserted right here. *)
  let perturbed = P.Placer.perturb ~seed:1 ~fraction:0.02 p in
  Pool.set_jobs 1;
  let _, warm_seq_r =
    time_best reps (fun () -> Router.route ~config:cfg ~warm_start:(seq_r, p) perturbed)
  in
  Pool.set_jobs target_jobs;
  let cold_t, cold_r =
    time_best reps (fun () -> Router.route ~config:cfg perturbed)
  in
  let warm_t, warm_r =
    time_best reps (fun () -> Router.route ~config:cfg ~warm_start:(seq_r, p) perturbed)
  in
  let dwseq = Router.digest warm_seq_r and dwpar = Router.digest warm_r in
  let warm_jobs_ok = String.equal dwseq dwpar in
  let ovf_ok =
    float_of_int warm_r.Router.overflow_total
    <= 1.05 *. Float.max 1. (float_of_int cold_r.Router.overflow_total)
  in
  let wl_dev =
    abs_float (warm_r.Router.wirelength -. cold_r.Router.wirelength)
    /. Float.max 1. cold_r.Router.wirelength
  in
  let warm_ok = warm_jobs_ok && ovf_ok && wl_dev <= 0.05 in
  Printf.printf "  %-24s %-28s %9.2f %9.2f %7.2fx %s\n%!" "route_warm" size
    (cold_t *. 1e3) (warm_t *. 1e3) (cold_t /. warm_t)
    (if warm_ok then "ok" else "MISMATCH");
  Printf.printf
    "    warm: overflow %d vs cold %d, WL dev %.2f%%, %d repair passes\n"
    warm_r.Router.overflow_total cold_r.Router.overflow_total (100. *. wl_dev)
    warm_r.Router.iterations_run;
  if not warm_jobs_ok then begin
    prerr_endline
      "route_warm: warm-start digest differs between DCO3D_JOBS=1 and N";
    exit 1
  end;
  if not warm_ok then begin
    prerr_endline
      "route_warm: warm start broke congestion parity (overflow or \
       wirelength more than 5% off the cold route)";
    exit 1
  end;
  [
    {
      k_name = "route";
      k_size = size;
      k_flops = None;
      k_seq_ms = seq_t *. 1e3;
      k_par_ms = par_t *. 1e3;
      k_digest = dseq;
      k_ok = ok;
    };
    {
      k_name = "route_warm";
      k_size = size;
      k_flops = None;
      (* seq_ms = cold re-route of the perturbed placement, par_ms =
         warm-started re-route: the row's speedup is the incremental
         payoff, floor-gated at >= 2x by bench_check *)
      k_seq_ms = cold_t *. 1e3;
      k_par_ms = warm_t *. 1e3;
      k_digest = dwpar;
      k_ok = warm_ok;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Predict benchmark: batched inference                                 *)
(* ------------------------------------------------------------------ *)

let predict_bench () =
  section "Predict benchmark (batched float32 inference)";
  let target_jobs = Pool.jobs () in
  let effective = Pool.effective_jobs () in
  (* An untrained network exercises the identical kernel mix as a
     trained one (weights are random either way here), so the bench
     needs no training run — same trick as the serve smoke test. *)
  let net =
    SiaUNet.create (Rng.create 3)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  let predictor = { Predictor.net; input_hw = 32; label_scale = 1.0 } in
  let rng = Rng.create 11 in
  let batch = 8 and hw = 48 in
  let pairs =
    Array.init batch (fun _ ->
        ( T.rand_uniform rng [| Fm.n_channels; hw; hw |],
          T.rand_uniform rng [| Fm.n_channels; hw; hw |] ))
  in
  let size = Printf.sprintf "batch %d, %dx%d gcells" batch hw hw in
  let digest_preds r =
    digest_tensors
      (Array.to_list r |> List.concat_map (fun (a, b) -> [ a; b ]))
  in
  (* the predict legs are long (~100 ms) but the speedup rides on both
     legs' minima; seven reps keep those minima stable on a noisy
     host *)
  let reps = max 7 (env_int "DCO3D_BENCH_REPS" 7) in
  let run () = Predictor.predict_batch predictor pairs in
  Pool.set_jobs 1;
  let f32_seq_t, f32_seq = time_best reps run in
  Pool.set_jobs target_jobs;
  let f32_par_t, f32_par = time_best reps run in
  let f32_seq_t, f32_par_t =
    if effective = 1 then
      let best = Float.min f32_seq_t f32_par_t in
      (best, best)
    else (f32_seq_t, f32_par_t)
  in
  let df32_seq = digest_preds f32_seq and df32_par = digest_preds f32_par in
  let f32_ok = String.equal df32_seq df32_par in
  Printf.printf "  jobs: sequential=1 parallel=%d (effective %d of %d cores)\n"
    target_jobs effective
    (Domain.recommended_domain_count ());
  Printf.printf "  %-24s %-28s %9s %9s %8s %s\n" "op" "size" "seq ms" "par ms"
    "speedup" "digest match";
  Printf.printf "  %-24s %-28s %9.2f %9.2f %7.2fx %s\n%!" "predict_f32" size
    (f32_seq_t *. 1e3) (f32_par_t *. 1e3) (f32_seq_t /. f32_par_t)
    (if f32_ok then "ok" else "MISMATCH");
  if not f32_ok then begin
    prerr_endline
      "predict: parallel result diverged from sequential result (digest \
       mismatch)";
    exit 1
  end;
  [
    {
      k_name = "predict_f32";
      k_size = size;
      k_flops = None;
      k_seq_ms = f32_seq_t *. 1e3;
      k_par_ms = f32_par_t *. 1e3;
      k_digest = df32_seq;
      k_ok = f32_ok;
    };
  ]

let serve_bench () =
  section "Serve benchmark (shard scaling under concurrent clients)";
  (* the fleet legs spawn real `dco3d serve --shard-of` processes, so
     shard scaling reflects genuine multi-process parallelism rather
     than domains contending inside this bench process *)
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dco3d.exe"
  in
  if not (Sys.file_exists exe) then begin
    Printf.printf "  [skipped: %s not built - run `dune build bin/dco3d.exe`]\n"
      exe;
    []
  end
  else begin
    let cores = Domain.recommended_domain_count () in
    let n_clients = 4 and reqs_per_client = env_int "DCO3D_SERVE_REQS" 6 in
    let seed = 3 and input_hw = 16 in
    let hw = 14 in
    let tmp_name =
      let n = ref 0 in
      fun suffix ->
        incr n;
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dco3d_bench_%d_%d%s" (Unix.getpid ()) !n suffix)
    in
    (* one fixed request set, reused by both legs so their reply
       digests are comparable bit-for-bit *)
    let rng = Rng.create 41 in
    let inputs =
      Array.init n_clients (fun _ ->
          Array.init reqs_per_client (fun _ ->
              ( T.rand_uniform rng [| Fm.n_channels; hw; hw |],
                T.rand_uniform rng [| Fm.n_channels; hw; hw |] )))
    in
    (* ground truth: the same untrained predictor the shards build from
       --seed/--input-hw (bin/dco3d.ml's untrained_predictor) *)
    let predictor =
      let net =
        SiaUNet.create (Rng.create seed)
          { SiaUNet.default_config with SiaUNet.base_channels = 8 }
      in
      { Predictor.net; input_hw; label_scale = 1.0 }
    in
    let digest_replies replies =
      digest_tensors
        (Array.to_list replies
        |> List.concat_map (fun per_client ->
               Array.to_list per_client
               |> List.concat_map (fun (a, b) -> [ a; b ])))
    in
    let expected_digest =
      digest_replies
        (Array.map
           (Array.map (fun (b, t) -> Predictor.predict predictor b t))
           inputs)
    in
    let run_leg n_shards =
      let ctl = tmp_name ".ctl" in
      let argv_of i =
        [|
          exe; "serve"; "--shard-of"; ctl; "--shard-id"; string_of_int i;
          "--seed"; string_of_int seed; "--input-hw"; string_of_int input_hw;
          "--linger-ms"; "2";
        |]
      in
      let cfg =
        Balance.default_config
          ~address:(Server.Unix_path (tmp_name ".sock"))
          ~ctl_path:ctl ~n_shards
      in
      let b = Balance.start cfg ~argv_of in
      Fun.protect
        ~finally:(fun () -> Balance.stop b)
        (fun () ->
          if not (Balance.await_live ~timeout_s:120. b n_shards) then begin
            Printf.eprintf "serve: %d-shard fleet failed to come up\n" n_shards;
            exit 1
          end;
          let addr = Balance.bound_addr b in
          let replies =
            Array.map (Array.map (fun _ -> (T.zeros [| 1 |], T.zeros [| 1 |])))
              inputs
          in
          let failed = Atomic.make false in
          let storm () =
            let threads =
              List.init n_clients (fun c ->
                  Thread.create
                    (fun () ->
                      let cl = Client.connect addr in
                      Array.iteri
                        (fun k (fb, ft) ->
                          match Client.retry ~attempts:10 ~seed:(c + k) cl fb ft with
                          | Client.Ok { c_bottom; c_top; _ } ->
                              replies.(c).(k) <- (c_bottom, c_top)
                          | _ -> Atomic.set failed true)
                        inputs.(c);
                      Client.close cl)
                    ())
            in
            List.iter Thread.join threads
          in
          let t0 = Unix.gettimeofday () in
          storm ();
          let dt = Unix.gettimeofday () -. t0 in
          if Atomic.get failed then begin
            Printf.eprintf "serve: requests failed against the %d-shard fleet\n"
              n_shards;
            exit 1
          end;
          (dt, digest_replies replies))
    in
    let t1, d1 = run_leg 1 in
    let tn, dn = run_leg 2 in
    (* same honesty rule as the kernel sections: on a single-core host
       two shards time-slice one CPU, the true ratio is 1.0, and any
       measured deviation is scheduling noise - fold the legs *)
    let t1, tn =
      if cores < 2 then
        let best = Float.min t1 tn in
        (best, best)
      else (t1, tn)
    in
    let total = n_clients * reqs_per_client in
    let rps dt = float_of_int total /. dt in
    let size =
      Printf.sprintf "%d clients x %d reqs, 1->2 shards" n_clients
        reqs_per_client
    in
    let ok = String.equal d1 dn && String.equal d1 expected_digest in
    Printf.printf "  %-24s %-28s %9s %9s %8s %s\n" "op" "size" "1sh req/s"
      "2sh req/s" "scaling" "digest match";
    Printf.printf "  %-24s %-28s %9.1f %9.1f %7.2fx %s\n%!" "serve_fleet" size
      (rps t1) (rps tn) (t1 /. tn)
      (if ok then "ok (= local predict)" else "MISMATCH");
    if not ok then begin
      prerr_endline
        "serve: fleet replies diverged from the local Predictor.predict \
         reference (digest mismatch)";
      exit 1
    end;
    [
      {
        k_name = "serve_fleet";
        k_size = size;
        k_flops = None;
        (* seq_ms = 1-shard wall time, par_ms = 2-shard wall time: the
           row's speedup is the shard-scaling factor, floor-gated by
           bench_check on multi-core hosts *)
        k_seq_ms = t1 *. 1e3;
        k_par_ms = tn *. 1e3;
        k_digest = d1;
        k_ok = ok;
      };
    ]
  end

(* machine-readable perf trajectory across PRs: one combined file over
   every benchmarked section (kernels + route) *)
let write_bench_files rows =
  let target_jobs = Pool.jobs () in
  let effective = Pool.effective_jobs () in
  let oc = open_out "BENCH_kernels.json" in
  (* "cores" lets bench_check scale its expectations to the machine the
     fresh file was generated on (e.g. the serve_fleet shard-scaling
     floor only binds when a second core exists to scale onto) *)
  Printf.fprintf oc
    "{\n  \"jobs\": %d,\n  \"jobs_effective\": %d,\n  \"cores\": %d,\n  \"kernels\": [\n"
    target_jobs effective
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i k ->
      Printf.fprintf oc
        "    {\"op\": %S, \"size\": %S, \"seq_ms\": %.4f, \"par_ms\": %.4f, \
         \"speedup\": %.4f, \"gflops_par\": %s, \"digest\": %S}%s\n"
        k.k_name k.k_size k.k_seq_ms k.k_par_ms
        (k.k_seq_ms /. k.k_par_ms)
        (match k.k_flops with
        | Some f -> Printf.sprintf "%.4f" (f /. (k.k_par_ms /. 1e3) /. 1e9)
        | None -> "null")
        k.k_digest
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  (* timing-free digests for the cross-process determinism check *)
  let oc = open_out "BENCH_kernels.digest" in
  List.iter (fun k -> Printf.fprintf oc "%s\t%s\n" k.k_name k.k_digest) rows;
  close_out oc;
  Printf.printf "  [wrote BENCH_kernels.json and BENCH_kernels.digest]\n"

(* ------------------------------------------------------------------ *)
(* main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  (* collect stage spans across every experiment; the aggregated
     profile lands next to BENCH_kernels.json *)
  Obs.enable ();
  Printf.printf
    "DCO-3D benchmark harness - designs: %s, scale %.2f, %d layouts/design, \
     %d epochs\n%!"
    (String.concat "," designs) scale n_samples epochs;
  let t0 = Unix.gettimeofday () in
  if enabled "table1" then table1 ();
  if enabled "table2" then table2 ();
  if enabled "fig2" then fig2 ();
  if enabled "fig5a" then fig5a ();
  if enabled "fig5b" then fig5b ();
  if enabled "fig5c" then fig5c ();
  if enabled "alg2" then alg2 ();
  if enabled "fig6" then fig6 ();
  if enabled "fig7" then fig7 ();
  if enabled "table3" then table3 ();
  if enabled "ablation" then ablation ();
  let kernel_rows = if enabled "kernels" then kernels () else [] in
  let route_rows = if enabled "route" then route_bench () else [] in
  let predict_rows = if enabled "predict" then predict_bench () else [] in
  let serve_rows = if enabled "serve" then serve_bench () else [] in
  let bench_rows = kernel_rows @ route_rows @ predict_rows @ serve_rows in
  if bench_rows <> [] then write_bench_files bench_rows;
  Obs.write_profile "BENCH_stage_profile.txt";
  Printf.printf "  [wrote BENCH_stage_profile.txt]\n";
  Printf.printf "\n[total runtime %.1f s]\n" (Unix.gettimeofday () -. t0)
