(* dco3d.corpus: the generated PPA benchmark suite and the bounded
   on-disk stores underneath it.

   Load-bearing properties:

   - a corpus spec is a pure function of (profile, seed): the same spec
     generates bit-identical netlists (equal content digests) at
     DCO3D_JOBS=1 and 4, and distinct seeds / corpus points generate
     distinct digests;
   - a PPA row's determinism digest is jobs-invariant and rerun-stable,
     and a store replay returns the stored row verbatim (runtimes
     included);
   - the caches are bounded: LRU-by-mtime eviction past the cap, with
     corrupt survivors aging out like live entries;
   - the serving tier replays a corpus cell bit-identically, dedupes
     identical in-flight requests, and answers repeats from the store
     without re-running the flow. *)

module Gen = Dco3d_netlist.Generator
module Fp = Dco3d_place.Floorplan
module Placer = Dco3d_place.Placer
module Params = Dco3d_place.Params
module R = Dco3d_route.Router
module Rc = Dco3d_route.Route_cache
module Framing = Dco3d_framing.Framing
module Corpus = Dco3d_corpus.Corpus
module Dataset = Dco3d_core.Dataset
module Obs = Dco3d_obs.Obs
module Rng = Dco3d_tensor.Rng
module SiaUNet = Dco3d_nn.Siamese_unet
module Predictor = Dco3d_core.Predictor
module Proto = Dco3d_serve.Protocol
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client

let with_jobs n f =
  Dco3d_parallel.Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Dco3d_parallel.Pool.set_jobs 1) f

let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dco3d_corpus_test_%d_%d" (Unix.getpid ()) !n)
    in
    (* fresh every time: a leftover from a crashed run must not leak
       hits into this one *)
    if Sys.file_exists d then
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    d

(* The whole suite runs on one tiny corpus point: a scaled-down DMA
   whose full flow takes tens of milliseconds. *)
let tiny_spec = Corpus.reseeded 7 (Corpus.scaled 0.02 (Corpus.find "dma"))
let tiny_cfg = Corpus.flow_config ~gcell:16 "base"

let row_t =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Corpus.json_of_row r))
    ( = )

(* ------------------------------------------------------------------ *)
(* Framing: LRU eviction primitive                                     *)
(* ------------------------------------------------------------------ *)

let test_evict_lru () =
  let dir = tmp_dir () in
  Framing.mkdir_p dir;
  let file i = Filename.concat dir (Printf.sprintf "e%d.x" i) in
  for i = 0 to 4 do
    let oc = open_out (file i) in
    output_string oc "x";
    close_out oc;
    (* deterministic mtimes, oldest first *)
    Unix.utimes (file i) (1000. +. float_of_int i) (1000. +. float_of_int i)
  done;
  let foreign = Filename.concat dir "other.y" in
  let oc = open_out foreign in
  close_out oc;
  let removed = Framing.evict_lru ~dir ~suffix:".x" ~max_entries:2 in
  Alcotest.(check int) "evicts past cap" 3 removed;
  Alcotest.(check bool) "oldest gone" false (Sys.file_exists (file 0));
  Alcotest.(check bool) "next-oldest gone" false (Sys.file_exists (file 1));
  Alcotest.(check bool) "newest kept" true (Sys.file_exists (file 4));
  Alcotest.(check bool) "foreign suffix untouched" true
    (Sys.file_exists foreign);
  Alcotest.(check int) "under cap is a no-op" 0
    (Framing.evict_lru ~dir ~suffix:".x" ~max_entries:10);
  (* touch promotes: file 3 becomes newest, so a cap of 1 keeps it *)
  Framing.touch (file 3);
  let removed = Framing.evict_lru ~dir ~suffix:".x" ~max_entries:1 in
  Alcotest.(check int) "cap 1" 1 removed;
  Alcotest.(check bool) "touched entry survives" true
    (Sys.file_exists (file 3));
  Alcotest.(check bool) "untouched entry evicted" false
    (Sys.file_exists (file 4));
  Alcotest.(check int) "missing dir" 0
    (Framing.evict_lru ~dir:(Filename.concat dir "nope") ~suffix:".x"
       ~max_entries:1)

(* ------------------------------------------------------------------ *)
(* Route cache: bounded size                                           *)
(* ------------------------------------------------------------------ *)

let placed ?(scale = 0.02) ~seed name =
  let nl = Gen.generate ~scale ~seed (Gen.profile name) in
  let fp = Fp.create nl in
  Placer.global_place ~seed:1 ~params:Params.default nl fp

let test_route_cache_cap () =
  with_obs @@ fun () ->
  let rc = Rc.create ~max_entries:2 (tmp_dir ()) in
  Alcotest.(check int) "explicit cap" 2 (Rc.max_entries rc);
  (* three distinct placements -> three distinct keys -> one eviction *)
  for seed = 1 to 3 do
    let p = placed ~seed "DMA" in
    ignore (Rc.find_or_route ~cache:rc ~config:(R.calibrated_config p) p)
  done;
  Alcotest.(check int) "bounded" 2 (Rc.count rc);
  Alcotest.(check int) "eviction counted" 1
    (Obs.counter_value "route/cache_evicted");
  (* the survivors still replay *)
  let p = placed ~seed:3 "DMA" in
  let cfg = R.calibrated_config p in
  let cold = R.route ~config:cfg p in
  let replay = Rc.find_or_route ~cache:rc ~config:cfg p in
  Alcotest.(check string) "survivor replays bit-identically" (R.digest cold)
    (R.digest replay)

let test_route_cache_env_cap () =
  Unix.putenv "DCO3D_ROUTE_CACHE_CAP" "17";
  Fun.protect ~finally:(fun () -> Unix.putenv "DCO3D_ROUTE_CACHE_CAP" "")
  @@ fun () ->
  Alcotest.(check int) "env cap" 17 (Rc.max_entries (Rc.create (tmp_dir ())));
  Unix.putenv "DCO3D_ROUTE_CACHE_CAP" "-3";
  Alcotest.(check int) "non-positive falls back" 4096
    (Rc.max_entries (Rc.create (tmp_dir ())));
  Unix.putenv "DCO3D_ROUTE_CACHE_CAP" "";
  Alcotest.(check int) "unset falls back" 4096
    (Rc.max_entries (Rc.create (tmp_dir ())))

(* ------------------------------------------------------------------ *)
(* Corpus store: round-trip, corruption, bound                         *)
(* ------------------------------------------------------------------ *)

let fake_row i =
  {
    Corpus.r_design = "fake";
    r_digest = Printf.sprintf "%032x" i;
    r_config = "base";
    r_seed = i;
    r_cells = 10 + i;
    r_nets = 12;
    r_overflow = i;
    r_ovf_pct = 0.5;
    r_wirelength_um = 123.4;
    r_wns_ps = -1.5;
    r_tns_ps = -2.5;
    r_power_mw = 0.25;
    r_peak_c = 26.0;
    r_avg_c = 25.1;
    r_gen_ms = 1.0;
    r_calib_ms = 2.0;
    r_flow_ms = 3.0;
  }

let test_store_roundtrip () =
  with_obs @@ fun () ->
  let st = Corpus.Store.create (tmp_dir ()) in
  let r = fake_row 1 in
  Alcotest.(check (option row_t)) "empty miss" None
    (Corpus.Store.find st ~key:"k1");
  Alcotest.(check bool) "put" true (Corpus.Store.put st ~key:"k1" r);
  Alcotest.(check (option row_t)) "hit, verbatim" (Some r)
    (Corpus.Store.find st ~key:"k1");
  Alcotest.(check (option row_t)) "other key misses" None
    (Corpus.Store.find st ~key:"k2");
  Alcotest.(check int) "one entry" 1 (Corpus.Store.count st);
  Alcotest.(check int) "hits counted" 1 (Obs.counter_value "corpus/cache_hit");
  Alcotest.(check int) "misses counted" 2
    (Obs.counter_value "corpus/cache_miss")

let test_store_corrupt_self_deletes () =
  let st = Corpus.Store.create (tmp_dir ()) in
  ignore (Corpus.Store.put st ~key:"k" (fake_row 3) : bool);
  let path = Framing.path_of ~dir:(Corpus.Store.dir st) ~suffix:".ppa" "k" in
  (* flip a byte inside the framed body: digest check must fail *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd 40 Unix.SEEK_SET : int);
  ignore (Unix.write_substring fd "~" 0 1 : int);
  Unix.close fd;
  Alcotest.(check (option row_t)) "corrupt entry misses" None
    (Corpus.Store.find st ~key:"k");
  Alcotest.(check bool) "and self-deletes" false (Sys.file_exists path)

let test_store_bounded_with_corrupt_survivor () =
  with_obs @@ fun () ->
  let st = Corpus.Store.create ~max_entries:2 (tmp_dir ()) in
  (* a corrupt survivor from a crashed run, older than everything *)
  let junk = Filename.concat (Corpus.Store.dir st) "deadbeef.ppa" in
  let oc = open_out junk in
  output_string oc "not a framed row";
  close_out oc;
  Unix.utimes junk 1000. 1000.;
  ignore (Corpus.Store.put st ~key:"a" (fake_row 1) : bool);
  ignore (Corpus.Store.put st ~key:"b" (fake_row 2) : bool);
  (* the second put pushes the population to 3: the corrupt file is
     oldest, so it is what ages out *)
  Alcotest.(check bool) "corrupt survivor aged out" false
    (Sys.file_exists junk);
  Alcotest.(check int) "bounded" 2 (Corpus.Store.count st);
  Alcotest.(check int) "eviction counted" 1
    (Obs.counter_value "corpus/cache_evicted");
  Alcotest.(check (option row_t)) "live entries kept" (Some (fake_row 2))
    (Corpus.Store.find st ~key:"b")

(* ------------------------------------------------------------------ *)
(* Determinism: digests and PPA rows                                   *)
(* ------------------------------------------------------------------ *)

let test_netlist_digest_determinism () =
  let digest s = Corpus.netlist_digest (Corpus.generate s) in
  let d1 = digest tiny_spec in
  Alcotest.(check string) "rerun, same digest" d1 (digest tiny_spec);
  let d4 = with_jobs 4 (fun () -> digest tiny_spec) in
  Alcotest.(check string) "jobs=4, same digest" d1 d4;
  Alcotest.(check bool) "distinct seeds, distinct digests" true
    (d1 <> digest (Corpus.reseeded 8 tiny_spec));
  (* two corpus points on one base draw distinct RNG streams *)
  let local = digest (Corpus.scaled 0.02 (Corpus.find "ecg-local")) in
  let global = digest (Corpus.scaled 0.02 (Corpus.find "ecg-global")) in
  Alcotest.(check bool) "same base, distinct points" true (local <> global)

let test_row_determinism () =
  let d1 = Corpus.row_digest (Corpus.run_cell tiny_spec tiny_cfg) in
  Alcotest.(check string) "rerun, same row digest" d1
    (Corpus.row_digest (Corpus.run_cell tiny_spec tiny_cfg));
  let d4 =
    with_jobs 4 (fun () -> Corpus.row_digest (Corpus.run_cell tiny_spec tiny_cfg))
  in
  Alcotest.(check string) "jobs=4, same row digest" d1 d4;
  let other =
    Corpus.row_digest (Corpus.run_cell (Corpus.reseeded 8 tiny_spec) tiny_cfg)
  in
  Alcotest.(check bool) "distinct seed, distinct row" true (d1 <> other)

let test_store_replay_verbatim () =
  with_obs @@ fun () ->
  let store = Corpus.Store.create (tmp_dir ()) in
  let r1 = Corpus.run_cell ~store tiny_spec tiny_cfg in
  let hits0 = Obs.counter_value "corpus/cache_hit" in
  let r2 = Corpus.run_cell ~store tiny_spec tiny_cfg in
  (* verbatim: the stored runtimes come back too, so a fleet replay is
     bit-identical, not merely digest-equal *)
  Alcotest.check row_t "replay verbatim (runtimes included)" r1 r2;
  Alcotest.(check int) "served from the store" (hits0 + 1)
    (Obs.counter_value "corpus/cache_hit")

(* ------------------------------------------------------------------ *)
(* Serving tier: replay, dedup, store hits                             *)
(* ------------------------------------------------------------------ *)

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dco3d_corpus_srv_%d_%d%s" (Unix.getpid ()) !n suffix)

let mk_predictor seed =
  {
    Predictor.net =
      SiaUNet.create (Rng.create seed)
        { SiaUNet.default_config with SiaUNet.base_channels = 4 };
    input_hw = 8;
    label_scale = 1.0;
  }

let with_corpus_server f =
  let cfg =
    {
      Server.address = Server.Unix_path (tmp_name ".sock");
      queue_capacity = 64;
      max_batch = 8;
      batch_linger_ms = 5.;
      cache_capacity = 16;
      spill_dir = None;
      (* the PPA store defaults to <route cache>/corpus *)
      route_cache_dir = Some (tmp_dir ());
      corpus_dir = None;
      shard_id = 0;
    }
  in
  let srv = Server.start cfg (mk_predictor 3) in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let stat srv name =
  match List.assoc_opt name (Server.stats srv) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let test_served_replay_dedup_and_store () =
  with_obs @@ fun () ->
  (* the reference row, computed locally with no caches at all *)
  let local = Corpus.run_cell tiny_spec tiny_cfg in
  with_corpus_server @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req =
    { Proto.cr_spec = tiny_spec; cr_config = tiny_cfg; cr_kind = Proto.Corpus_ppa }
  in
  let id1 = Client.submit_corpus c req in
  (* identical request while the first is in flight: same job id *)
  let id1b = Client.submit_corpus c req in
  Alcotest.(check int) "in-flight dedup returns the same id" id1 id1b;
  Alcotest.(check bool) "dedup counted" true (stat srv "corpus_dedup" >= 1.);
  let served =
    match Client.wait_corpus c id1 with
    | Proto.Corpus_row r -> r
    | Proto.Corpus_dataset_built _ -> Alcotest.fail "unexpected dataset reply"
  in
  Alcotest.(check string) "served row == local row" (Corpus.row_digest local)
    (Corpus.row_digest served);
  (* a fresh identical request after completion is answered from the
     on-disk store without re-running the flow *)
  let hits0 = stat srv "corpus_cache_hits" in
  let id2 = Client.submit_corpus c req in
  Alcotest.(check bool) "new job after completion" true (id2 <> id1);
  let replay =
    match Client.wait_corpus c id2 with
    | Proto.Corpus_row r -> r
    | Proto.Corpus_dataset_built _ -> Alcotest.fail "unexpected dataset reply"
  in
  Alcotest.check row_t "store replay verbatim" served replay;
  Alcotest.(check bool) "store hit observed in stats" true
    (stat srv "corpus_cache_hits" > hits0)

let test_served_dataset_build () =
  with_obs @@ fun () ->
  let local =
    Dataset.digest (Corpus.build_dataset ~n_samples:1 tiny_spec tiny_cfg)
  in
  with_corpus_server @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let id =
    Client.submit_corpus c
      {
        Proto.cr_spec = tiny_spec;
        cr_config = tiny_cfg;
        cr_kind = Proto.Corpus_dataset 1;
      }
  in
  match Client.wait_corpus c id with
  | Proto.Corpus_dataset_built { cd_design; cd_samples; cd_digest } ->
      Alcotest.(check string) "design" tiny_spec.Corpus.sp_name cd_design;
      Alcotest.(check int) "samples" 1 cd_samples;
      Alcotest.(check string) "served build == local build" local cd_digest
  | Proto.Corpus_row _ -> Alcotest.fail "unexpected PPA-row reply"

let test_corpus_key_identity () =
  let req =
    { Proto.cr_spec = tiny_spec; cr_config = tiny_cfg; cr_kind = Proto.Corpus_ppa }
  in
  Alcotest.(check string) "stable" (Proto.corpus_key req)
    (Proto.corpus_key req);
  Alcotest.(check bool) "seed changes the key" true
    (Proto.corpus_key req
    <> Proto.corpus_key { req with Proto.cr_spec = Corpus.reseeded 8 tiny_spec });
  Alcotest.(check bool) "kind changes the key" true
    (Proto.corpus_key req
    <> Proto.corpus_key { req with Proto.cr_kind = Proto.Corpus_dataset 1 })

let suites =
  [
    ( "corpus",
      [
        Alcotest.test_case "framing evict_lru (order, suffix, touch)" `Quick
          test_evict_lru;
        Alcotest.test_case "route cache bounded + survivor replay" `Quick
          test_route_cache_cap;
        Alcotest.test_case "route cache cap from env" `Quick
          test_route_cache_env_cap;
        Alcotest.test_case "store round-trip + counters" `Quick
          test_store_roundtrip;
        Alcotest.test_case "store corrupt entry self-deletes" `Quick
          test_store_corrupt_self_deletes;
        Alcotest.test_case "store bounded, corrupt survivor ages out" `Quick
          test_store_bounded_with_corrupt_survivor;
        Alcotest.test_case "netlist digests deterministic (jobs 1 and 4)"
          `Quick test_netlist_digest_determinism;
        Alcotest.test_case "PPA rows deterministic (jobs 1 and 4)" `Quick
          test_row_determinism;
        Alcotest.test_case "store replay verbatim" `Quick
          test_store_replay_verbatim;
        Alcotest.test_case "served replay, in-flight dedup, store hits"
          `Quick test_served_replay_dedup_and_store;
        Alcotest.test_case "served dataset build" `Quick
          test_served_dataset_build;
        Alcotest.test_case "corpus request key" `Quick test_corpus_key_identity;
      ] );
  ]
