(* dco3d.serve: LRU cache, wire protocol, batched inference
   bit-exactness, load-guard regressions, and an end-to-end daemon
   exercise with concurrent clients from the domain pool. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module Pool = Dco3d_parallel.Pool
module Obs = Dco3d_obs.Obs
module SiaUNet = Dco3d_nn.Siamese_unet
module Predictor = Dco3d_core.Predictor
module Lru = Dco3d_serve.Lru
module Proto = Dco3d_serve.Protocol
module Server = Dco3d_serve.Server
module Client = Dco3d_serve.Client

let with_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dco3d_serve_test_%d_%d%s" (Unix.getpid ()) !n suffix)

(* ------------------------------------------------------------------ *)
(* LRU                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.put c "c" 3;
  (* "b" was least recently used ("a" was promoted by the find) *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "full" 2 (Lru.length c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "a" 10;
  Alcotest.(check (option int)) "replaced" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "no growth" 2 (Lru.length c);
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted after a's refresh" None
    (Lru.find c "b")

let test_lru_mem_no_promote () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check bool) "mem a" true (Lru.mem c "a");
  (* mem must not promote: "a" is still the eviction candidate *)
  Lru.put c "c" 3;
  Alcotest.(check bool) "a evicted" false (Lru.mem c "a");
  Alcotest.(check bool) "b kept" true (Lru.mem c "b")

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 in
  Lru.put c "a" 1;
  Alcotest.(check (option int)) "disabled cache never hits" None
    (Lru.find c "a");
  Alcotest.(check int) "stays empty" 0 (Lru.length c);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_clear_and_churn () =
  let c = Lru.create ~capacity:8 in
  for i = 0 to 99 do
    Lru.put c (string_of_int i) i
  done;
  Alcotest.(check int) "capped" 8 (Lru.length c);
  for i = 92 to 99 do
    Alcotest.(check (option int))
      (Printf.sprintf "latest %d resident" i)
      (Some i)
      (Lru.find c (string_of_int i))
  done;
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (option int)) "gone" None (Lru.find c "99")

(* ------------------------------------------------------------------ *)
(* Protocol framing                                                    *)
(* ------------------------------------------------------------------ *)

let rand_stack rng ny nx =
  T.rand_uniform rng ~lo:0. ~hi:4. [| 8; ny; nx |]

let test_protocol_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let rng = Rng.create 11 in
      let payload =
        { Proto.f_bottom = rand_stack rng 9 13; f_top = rand_stack rng 9 13 }
      in
      Proto.send_request a { Proto.req = Proto.Predict payload; timeout_ms = Some 25. };
      let env = Proto.recv_request b in
      Alcotest.(check (option (float 0.))) "timeout survives" (Some 25.)
        env.Proto.timeout_ms;
      (match env.Proto.req with
      | Proto.Predict p ->
          Alcotest.(check (array (float 0.))) "payload bits survive"
            payload.Proto.f_bottom.T.data p.Proto.f_bottom.T.data;
          Alcotest.(check string) "content key stable"
            (Proto.predict_key payload) (Proto.predict_key p)
      | _ -> Alcotest.fail "wrong request decoded");
      Proto.send_reply b (Proto.Overloaded { queue_len = 3; capacity = 2 });
      (match Proto.recv_reply a with
      | Proto.Overloaded { queue_len = 3; capacity = 2 } -> ()
      | _ -> Alcotest.fail "wrong reply decoded"))

let test_protocol_rejects_garbage () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let junk = Bytes.of_string (String.make 64 'x') in
      ignore (Unix.write a junk 0 (Bytes.length junk));
      Alcotest.(check bool) "bad magic raises" true
        (match Proto.recv_request b with
        | _ -> false
        | exception Proto.Protocol_error _ -> true))

let test_protocol_eof_and_truncation () =
  (* Clean disconnect between frames: End_of_file. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Alcotest.(check bool) "clean EOF" true
    (match Proto.recv_request b with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close b;
  (* Disconnect mid-frame: Protocol_error, not a Marshal crash. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let partial = Bytes.of_string "DCO3D-SERVE-V1" in
  ignore (Unix.write a partial 0 (Bytes.length partial));
  Unix.close a;
  Alcotest.(check bool) "truncated header" true
    (match Proto.recv_request b with
    | _ -> false
    | exception Proto.Protocol_error _ -> true);
  Unix.close b

(* A frame from a peer built against another payload layout must be
   refused at the header, before its payload is Marshal-decoded into an
   ill-typed value. *)
let test_protocol_rejects_old_version () =
  Alcotest.(check int) "current version" 2 Proto.version;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let payload =
        Marshal.to_string { Proto.req = Proto.Ping; timeout_ms = None } []
      in
      let magic = "DCO3D-SERVE-V1" in
      let m = String.length magic in
      let frame = Bytes.create (m + 1 + 4 + 16 + String.length payload) in
      Bytes.blit_string magic 0 frame 0 m;
      Bytes.set_uint8 frame m 1;
      Bytes.set_int32_be frame (m + 1) (Int32.of_int (String.length payload));
      Bytes.blit_string (Digest.string payload) 0 frame (m + 5) 16;
      Bytes.blit_string payload 0 frame (m + 21) (String.length payload);
      Proto.write_all a frame 0 (Bytes.length frame);
      match Proto.recv_request b with
      | _ -> Alcotest.fail "a version-1 frame was decoded"
      | exception Proto.Protocol_error msg ->
          Alcotest.(check string) "names the version"
            "unsupported protocol version 1" msg)

let test_predict_key_content_only () =
  let rng = Rng.create 5 in
  let p = { Proto.f_bottom = rand_stack rng 6 6; f_top = rand_stack rng 6 6 } in
  let same = { Proto.f_bottom = T.copy p.Proto.f_bottom; f_top = T.copy p.Proto.f_top } in
  Alcotest.(check string) "equal content, equal key" (Proto.predict_key p)
    (Proto.predict_key same);
  let other = { p with Proto.f_top = rand_stack rng 6 6 } in
  Alcotest.(check bool) "different content, different key" true
    (Proto.predict_key p <> Proto.predict_key other)

(* ------------------------------------------------------------------ *)
(* predict_batch bit-exactness (satellite: property tests)             *)
(* ------------------------------------------------------------------ *)

let mk_predictor ?(input_hw = 8) ?(base_channels = 4) seed =
  let cfg = { SiaUNet.default_config with SiaUNet.base_channels } in
  {
    Predictor.net = SiaUNet.create (Rng.create seed) cfg;
    input_hw;
    label_scale = 1.0;
  }

let check_bits what expected got =
  Alcotest.(check int)
    (what ^ " length") (Array.length expected.T.data)
    (Array.length got.T.data);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.T.data.(i) then
        Alcotest.failf "%s: bit mismatch at %d: %h vs %h" what i e
          got.T.data.(i))
    expected.T.data

let batch_matches_singles jobs sizes () =
  with_jobs jobs (fun () ->
      let predictor = mk_predictor 3 in
      let rng = Rng.create 17 in
      List.iter
        (fun n ->
          (* ragged sample shapes: resolution differs per pair *)
          let pairs =
            Array.init n (fun i ->
                let ny = 5 + ((i * 3) mod 9) and nx = 4 + ((i * 5) mod 11) in
                (rand_stack rng ny nx, rand_stack rng ny nx))
          in
          let batched = Predictor.predict_batch predictor pairs in
          Array.iteri
            (fun i (fb, ft) ->
              let eb, et = Predictor.predict predictor fb ft in
              let gb, gt = batched.(i) in
              check_bits (Printf.sprintf "n=%d sample %d bottom" n i) eb gb;
              check_bits (Printf.sprintf "n=%d sample %d top" n i) et gt)
            pairs)
        sizes)

let test_predict_batch_empty () =
  let predictor = mk_predictor 3 in
  Alcotest.(check int) "empty batch" 0
    (Array.length (Predictor.predict_batch predictor [||]))

(* ------------------------------------------------------------------ *)
(* Load guards (satellite: reject mismatched weight files)             *)
(* ------------------------------------------------------------------ *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_load_rejects_wrong_architecture () =
  let path = tmp_name ".bin" in
  let predictor = mk_predictor ~base_channels:4 9 in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      (* Matching expectation loads fine... *)
      let same =
        Predictor.load
          ~expect:{ SiaUNet.default_config with SiaUNet.base_channels = 4 }
          path
      in
      Alcotest.(check string) "same weights" (Predictor.fingerprint predictor)
        (Predictor.fingerprint same);
      (* ...a disagreeing one is rejected with both architectures named. *)
      match
        Predictor.load
          ~expect:{ SiaUNet.default_config with SiaUNet.base_channels = 16 }
          path
      with
      | _ -> Alcotest.fail "wrong-architecture load must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "mentions the mismatch" true
            (contains ~affix:"mismatch" msg);
          Alcotest.(check bool) "names the stored architecture" true
            (contains ~affix:"base_channels=4" msg);
          Alcotest.(check bool) "names the requested architecture" true
            (contains ~affix:"base_channels=16" msg))

let test_load_rejects_corrupt_weights () =
  let path = tmp_name ".bin" in
  let predictor = mk_predictor 13 in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      (* Truncate the companion weights file mid-payload. *)
      let net_path = path ^ ".net" in
      let full = In_channel.with_open_bin net_path In_channel.input_all in
      Out_channel.with_open_bin net_path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      (match Predictor.load path with
      | _ -> Alcotest.fail "truncated weights must fail"
      | exception Predictor.Load_error _ -> ());
      (* Garbage magic. *)
      Out_channel.with_open_bin net_path (fun oc ->
          Out_channel.output_string oc (String.make 256 'Z'));
      match Predictor.load path with
      | _ -> Alcotest.fail "garbage weights must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names the cause" true
            (contains ~affix:"magic" msg))

let test_load_rejects_incoherent_pair () =
  (* A predictor whose stored resolution is not divisible by the
     network's downsampling factor must be refused at load time. *)
  let path = tmp_name ".bin" in
  let predictor = { (mk_predictor 21) with Predictor.input_hw = 18 } in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      match Predictor.load path with
      | _ -> Alcotest.fail "indivisible resolution must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names divisibility" true
            (contains ~affix:"divisible" msg))

(* Files of the retired "DCO3D-QPRED-V1" predictor format (that header
   plus a Marshal'd resolution/scale pair) must be refused cleanly,
   whether whole or cut short inside the magic. *)
let test_load_rejects_retired_format () =
  let path = tmp_name ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let refused what contents =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc contents);
        match Predictor.load path with
        | _ -> Alcotest.failf "%s: loaded" what
        | exception Predictor.Load_error _ -> ()
      in
      refused "whole header"
        ("DCO3D-QPRED-V1" ^ Marshal.to_string (32, 1.0) []);
      refused "bare magic" "DCO3D-QPRED-V1")

(* The fingerprint of the seeded untrained CLI model ([dco3d serve] with
   no --model: seed 42, 32x32, base width 8) is the model component of
   every serve-cache, spill and route-pin key; it must not move. *)
let test_cli_model_fingerprint_pinned () =
  let net =
    SiaUNet.create (Rng.create 42)
      { SiaUNet.default_config with SiaUNet.base_channels = 8 }
  in
  Alcotest.(check string) "untrained CLI model fingerprint"
    "3e2bb55c8f7ca84705c2af3ba3903925"
    (Predictor.fingerprint { Predictor.net; input_hw = 32; label_scale = 1.0 })

let test_load_rejects_wrong_channels () =
  (* Weights for a 5-channel network can never serve the 8-channel
     feature pipeline, even though they Marshal-decode fine. *)
  let path = tmp_name ".bin" in
  let cfg = { SiaUNet.default_config with SiaUNet.in_channels = 5 } in
  let predictor =
    {
      Predictor.net = SiaUNet.create (Rng.create 3) cfg;
      input_hw = 8;
      label_scale = 1.0;
    }
  in
  Predictor.save predictor path;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove (path ^ ".net"))
    (fun () ->
      match Predictor.load path with
      | _ -> Alcotest.fail "wrong channel count must fail"
      | exception Predictor.Load_error msg ->
          Alcotest.(check bool) "names the channels" true
            (contains ~affix:"channels" msg))

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)
(* ------------------------------------------------------------------ *)

let with_server ?(queue_capacity = 64) ?(max_batch = 8) ?(batch_linger_ms = 30.)
    ?(cache_capacity = 128) ?spill_dir ?(shard_id = 0)
    predictor f =
  let cfg =
    {
      Server.address = Server.Unix_path (tmp_name ".sock");
      queue_capacity;
      max_batch;
      batch_linger_ms;
      cache_capacity;
      spill_dir;
      route_cache_dir = None;
      corpus_dir = None;
      shard_id;
    }
  in
  let srv = Server.start cfg predictor in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let stat srv name =
  match List.assoc_opt name (Server.stats srv) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let test_e2e_concurrent_bit_identical () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  with_jobs 4 @@ fun () ->
  let predictor = mk_predictor 29 in
  with_server predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 31 in
  let payloads =
    Array.init 8 (fun i ->
        let ny = 6 + (i mod 3) and nx = 6 + (i mod 4) in
        (rand_stack rng ny nx, rand_stack rng ny nx))
  in
  (* Fire all clients concurrently from the domain pool; each worker
     opens its own connection.  Blocking socket IO releases the domain
     runtime lock, so the server's systhreads keep running. *)
  let replies =
    Pool.map_array
      (fun (fb, ft) ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> Client.predict c fb ft))
      payloads
  in
  Array.iteri
    (fun i reply ->
      match reply with
      | Client.Ok { c_bottom; c_top; cache_hit = _ } ->
          let fb, ft = payloads.(i) in
          let eb, et = Predictor.predict predictor fb ft in
          check_bits (Printf.sprintf "client %d bottom" i) eb c_bottom;
          check_bits (Printf.sprintf "client %d top" i) et c_top
      | _ -> Alcotest.failf "client %d not served" i)
    replies;
  (* The micro-batcher must have coalesced at least once: 8 concurrent
     requests against a 30 ms linger cannot all ride alone. *)
  Alcotest.(check bool) "batcher coalesced" true (stat srv "max_batch" > 1.);
  (match Obs.histogram_stats "serve/batch_size" with
  | Some (_, _, _, mx) ->
      Alcotest.(check bool) "obs histogram saw a real batch" true (mx > 1.)
  | None -> Alcotest.fail "serve/batch_size histogram empty");
  Alcotest.(check bool) "requests counted" true
    (Obs.counter_value "serve/requests" >= 8)

let test_e2e_cache_hit_no_recompute () =
  let predictor = mk_predictor 37 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Rng.create 41 in
  let fb = rand_stack rng 7 9 and ft = rand_stack rng 7 9 in
  (match Client.predict c fb ft with
  | Client.Ok { cache_hit; _ } ->
      Alcotest.(check bool) "first is a miss" false cache_hit
  | _ -> Alcotest.fail "first predict not served");
  let batches_before = stat srv "batches" in
  (* Same content from a different tensor allocation: the content key
     must hit, and no new forward pass may run. *)
  (match Client.predict c (T.copy fb) (T.copy ft) with
  | Client.Ok { cache_hit; c_bottom; c_top } ->
      Alcotest.(check bool) "repeat is a hit" true cache_hit;
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "cached bottom" eb c_bottom;
      check_bits "cached top" et c_top
  | _ -> Alcotest.fail "repeat predict not served");
  Alcotest.(check (float 0.)) "no extra forward pass" batches_before
    (stat srv "batches");
  Alcotest.(check bool) "hit counted" true (stat srv "cache_hits" >= 1.)

let test_e2e_backpressure_overloaded () =
  let predictor = mk_predictor 43 in
  (* Tiny queue + long linger: the first request parks in the batcher's
     linger window while the second finds the queue full. *)
  with_server ~queue_capacity:1 ~batch_linger_ms:400. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 47 in
  let mk () = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let first_reply = ref None in
  let fb1, ft1 = mk () in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> first_reply := Some (Client.predict c fb1 ft1)))
      ()
  in
  (* Wait until the first request occupies the queue. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  let overloaded =
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let fb, ft = mk () in
        Client.predict c fb ft)
  in
  (match overloaded with
  | Client.Overloaded { capacity = 1; _ } -> ()
  | Client.Overloaded _ -> Alcotest.fail "wrong capacity reported"
  | _ -> Alcotest.fail "second request should be refused");
  Thread.join t;
  (match !first_reply with
  | Some (Client.Ok _) -> ()
  | _ -> Alcotest.fail "queued request must still be served");
  Alcotest.(check bool) "overload counted" true (stat srv "overloaded" >= 1.)

let test_e2e_deadline_timeout () =
  let predictor = mk_predictor 53 in
  with_server ~batch_linger_ms:150. predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rng = Rng.create 59 in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  (* A 1 ms deadline expires inside the 150 ms linger window, so the
     batcher must answer Timed_out without running the request. *)
  (match Client.predict ~timeout_ms:1. c fb ft with
  | Client.Timed_out -> ()
  | _ -> Alcotest.fail "expected a deadline miss");
  Alcotest.(check bool) "timeout counted" true (stat srv "timeouts" >= 1.);
  (* The connection stays usable afterwards. *)
  Client.ping c

let test_e2e_survives_rude_clients () =
  let predictor = mk_predictor 61 in
  with_server predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let path = match addr with Server.Unix_path p -> p | _ -> assert false in
  (* Client 1: raw garbage bytes. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let junk = Bytes.of_string (String.make 128 '?') in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd;
  (* Client 2: sends a valid request, then vanishes before the reply. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let rng = Rng.create 67 in
  Proto.send_request fd
    {
      Proto.req =
        Proto.Predict
          { Proto.f_bottom = rand_stack rng 6 6; f_top = rand_stack rng 6 6 };
      timeout_ms = None;
    };
  Unix.close fd;
  (* The daemon must shrug both off and keep serving. *)
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 5. in
  let rec settle () =
    Client.ping c;
    if stat srv "batches" < 1. && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.01;
      settle ()
    end
  in
  settle ();
  Client.ping c;
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  match Client.predict c fb ft with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "daemon should keep serving after rude clients"

(* A payload the predictor cannot evaluate (wrong channel count) must
   fail that request with a server error — and must NOT kill the
   batcher: the next well-formed predict on the same daemon succeeds.
   (Regression: an exception escaping [predict_batch] terminated the
   batcher thread, wedging every subsequent client forever.) *)
let test_bad_payload_does_not_kill_batcher () =
  let rng = Rng.create 83 in
  let predictor = mk_predictor 83 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let bad = T.zeros [| 7; 6; 6 |] in
  (match try `R (Client.predict c bad bad) with Client.Error m -> `E m with
  | `E msg ->
      Alcotest.(check bool) "names the failure" true
        (contains ~affix:"predict failed" msg)
  | `R _ -> Alcotest.fail "7-channel payload must not predict");
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  match Client.predict c fb ft with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "batcher must survive a malformed payload"

let test_e2e_flow_job () =
  let predictor = mk_predictor 71 in
  with_server predictor @@ fun srv ->
  let c = Client.connect (Server.bound_addr srv) in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Unknown design: the job fails, the daemon does not. *)
  let bad =
    Client.submit_flow c
      {
        Proto.fl_design = "no-such-design";
        fl_scale = 0.02;
        fl_seed = 1;
        fl_gcell = 8;
        fl_variant = Proto.Pin3d;
      }
  in
  (match
     try `Sum (Client.wait_flow c bad) with Client.Error msg -> `Err msg
   with
  | `Err msg ->
      Alcotest.(check bool) "failure names the design" true
        (contains ~affix:"no-such-design" msg)
  | `Sum _ -> Alcotest.fail "unknown design must fail");
  (* A real (tiny) flow job completes asynchronously and reports PPA. *)
  let id =
    Client.submit_flow c
      {
        Proto.fl_design = "DMA";
        fl_scale = 0.02;
        fl_seed = 5;
        fl_gcell = 10;
        fl_variant = Proto.Pin3d;
      }
  in
  (* Submission returns immediately; the job runs on the flow worker
     while this connection stays free for other requests. *)
  Client.ping c;
  let s = Client.wait_flow c id in
  Alcotest.(check bool) "wirelength positive" true
    (s.Proto.fs_wirelength_um > 0.);
  Alcotest.(check bool) "overflow sane" true (s.Proto.fs_overflow >= 0);
  (* Unknown job id is an error, not a crash. *)
  match Client.poll_flow c (id + 999) with
  | _ -> Alcotest.fail "unknown job id must be refused"
  | exception Client.Error _ -> ()

let test_e2e_drain_on_stop () =
  let predictor = mk_predictor 73 in
  let cfg =
    {
      Server.address = Server.Unix_path (tmp_name ".sock");
      queue_capacity = 64;
      max_batch = 8;
      batch_linger_ms = 200.;
      cache_capacity = 16;
      spill_dir = None;
      route_cache_dir = None;
      corpus_dir = None;
      shard_id = 0;
    }
  in
  let srv = Server.start cfg predictor in
  let addr = Server.bound_addr srv in
  let rng = Rng.create 79 in
  let fb = rand_stack rng 6 6 and ft = rand_stack rng 6 6 in
  let reply = ref None in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> reply := Some (Client.predict c fb ft)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  (* Stop while the request is still queued in the linger window: the
     drain must answer it, not drop it. *)
  Server.stop srv;
  Thread.join t;
  match !reply with
  | Some (Client.Ok { c_bottom; c_top; _ }) ->
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "drained bottom" eb c_bottom;
      check_bits "drained top" et c_top
  | _ -> Alcotest.fail "queued request must be served during drain"

(* ------------------------------------------------------------------ *)
(* Client retry                                                        *)
(* ------------------------------------------------------------------ *)

let test_retry_overloaded_recovers () =
  let predictor = mk_predictor 101 in
  (* Tiny queue + long linger: a parked request keeps the queue full,
     so a second client is refused with Overloaded until the linger
     window expires and the batch drains.  Client.retry must absorb
     those refusals and come back with the real reply. *)
  with_server ~queue_capacity:1 ~batch_linger_ms:150. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 103 in
  let fb1, ft1 = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let first_reply = ref None in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> first_reply := Some (Client.predict c fb1 ft1)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fb, ft = (rand_stack rng 6 6, rand_stack rng 6 6) in
  (match Client.retry ~attempts:30 ~base_delay_s:0.02 ~max_delay_s:0.1 c fb ft
   with
  | Client.Ok { c_bottom; c_top; _ } ->
      let eb, et = Predictor.predict predictor fb ft in
      check_bits "retried bottom" eb c_bottom;
      check_bits "retried top" et c_top
  | Client.Overloaded _ -> Alcotest.fail "retry gave up while queue drained"
  | _ -> Alcotest.fail "retry must end in a served reply");
  Alcotest.(check bool) "server refused at least once" true
    (stat srv "overloaded" >= 1.);
  Thread.join t;
  match !first_reply with
  | Some (Client.Ok _) -> ()
  | _ -> Alcotest.fail "parked request must still be served"

let test_retry_respects_deadline () =
  let predictor = mk_predictor 107 in
  with_server ~queue_capacity:1 ~batch_linger_ms:400. predictor @@ fun srv ->
  let addr = Server.bound_addr srv in
  let rng = Rng.create 109 in
  let fb1, ft1 = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let t =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> ignore (Client.predict c fb1 ft1)))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while stat srv "queue_depth" < 1. && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let fb, ft = (rand_stack rng 6 6, rand_stack rng 6 6) in
  let started = Unix.gettimeofday () in
  (* The queue stays full for 400 ms but the retry budget is 100 ms:
     retry must return the typed refusal once the deadline is spent
     instead of burning all 50 attempts. *)
  (match
     Client.retry ~attempts:50 ~base_delay_s:0.02 ~max_delay_s:0.05
       ~deadline_s:0.1 c fb ft
   with
  | Client.Overloaded _ -> ()
  | Client.Ok _ -> Alcotest.fail "queue cannot have drained inside 100 ms"
  | _ -> Alcotest.fail "expected the typed overload refusal");
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check bool)
    (Printf.sprintf "deadline respected (%.3fs)" elapsed)
    true (elapsed < 0.35);
  Thread.join t

let suites =
  [
    ( "serve lru",
      [
        Alcotest.test_case "basic eviction order" `Quick test_lru_basic;
        Alcotest.test_case "replace refreshes" `Quick test_lru_replace;
        Alcotest.test_case "mem does not promote" `Quick test_lru_mem_no_promote;
        Alcotest.test_case "zero capacity disables" `Quick
          test_lru_zero_capacity;
        Alcotest.test_case "churn and clear" `Quick test_lru_clear_and_churn;
      ] );
    ( "serve protocol",
      [
        Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_protocol_rejects_garbage;
        Alcotest.test_case "eof and truncation" `Quick
          test_protocol_eof_and_truncation;
        Alcotest.test_case "rejects version 1 frames" `Quick
          test_protocol_rejects_old_version;
        Alcotest.test_case "content-only cache key" `Quick
          test_predict_key_content_only;
      ] );
    ( "serve batch",
      [
        Alcotest.test_case "batch = singles, jobs=1" `Quick
          (batch_matches_singles 1 [ 1; 2; 5 ]);
        Alcotest.test_case "batch = singles, jobs=4" `Quick
          (batch_matches_singles 4 [ 1; 3; 5 ]);
        Alcotest.test_case "empty batch" `Quick test_predict_batch_empty;
      ] );
    ( "serve load guards",
      [
        Alcotest.test_case "wrong architecture" `Quick
          test_load_rejects_wrong_architecture;
        Alcotest.test_case "corrupt weights" `Quick
          test_load_rejects_corrupt_weights;
        Alcotest.test_case "incoherent pair" `Quick
          test_load_rejects_incoherent_pair;
        Alcotest.test_case "wrong channel count" `Quick
          test_load_rejects_wrong_channels;
        Alcotest.test_case "retired format refused" `Quick
          test_load_rejects_retired_format;
      ] );
    ( "serve e2e",
      [
        Alcotest.test_case "concurrent clients, bit-identical" `Quick
          test_e2e_concurrent_bit_identical;
        Alcotest.test_case "cache hit skips recompute" `Quick
          test_e2e_cache_hit_no_recompute;
        Alcotest.test_case "backpressure overloads" `Quick
          test_e2e_backpressure_overloaded;
        Alcotest.test_case "deadline timeout" `Quick test_e2e_deadline_timeout;
        Alcotest.test_case "survives rude clients" `Quick
          test_e2e_survives_rude_clients;
        Alcotest.test_case "bad payload fails, batcher survives" `Quick
          test_bad_payload_does_not_kill_batcher;
        Alcotest.test_case "flow job lifecycle" `Quick test_e2e_flow_job;
        Alcotest.test_case "drain on stop" `Quick test_e2e_drain_on_stop;
        Alcotest.test_case "CLI model fingerprint pinned" `Quick
          test_cli_model_fingerprint_pinned;
        Alcotest.test_case "retry recovers from overload" `Quick
          test_retry_overloaded_recovers;
        Alcotest.test_case "retry respects deadline" `Quick
          test_retry_respects_deadline;
      ] );
  ]
