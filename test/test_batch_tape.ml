(* Tests for the batch-native tape: every rank-4 op must give, for a
   batch of N samples, the bits the kernels give on each rank-3 sample —
   outputs and input gradients sample by sample, weight and bias
   gradients as the per-sample gradients summed in ascending sample
   order — at N = 1, 2, 3 and under a real multi-domain split.  Plus
   finite-difference checks and the no_grad contract. *)

module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng
module V = Dco3d_autodiff.Value
module Pool = Dco3d_parallel.Pool

let with_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let bits t = Array.init (T.numel t) (fun i -> Int64.bits_of_float (T.get_flat t i))

let check_bits name expect got =
  Alcotest.(check (array int)) (name ^ " shape") (T.shape expect) (T.shape got);
  Alcotest.(check bool) (name ^ " bit-identical") true (bits expect = bits got)

let sum_in_order = function
  | [] -> invalid_arg "sum_in_order"
  | t :: rest -> List.fold_left T.add t rest

(* Sample [b] of a rank-4 tensor as rank 3. *)
let sample t b =
  let sh = T.shape t in
  T.reshape (T.slice_batch t b 1) [| sh.(1); sh.(2); sh.(3) |]

(* Run [f] on a fresh batch param, seed its output gradient with a fixed
   random tensor through [V.dot], and return (output, input grad, param
   grads). *)
let run_batch f x params =
  let xv = V.param (T.copy x) in
  let pv = List.map (fun p -> V.param (T.copy p)) params in
  let y = f xv pv in
  let r = T.rand_uniform (Rng.create 99) ~lo:(-1.) (V.shape y) in
  V.backward (V.dot y (V.const r));
  (V.data y, r, V.grad xv, List.map V.grad pv)

(* conv2d, 8 -> 8 channels at 16x16: 147k MACs a sample, so every
   batch clears the parallel threshold and a 3-job pool really splits. *)
let conv_case n =
  let rng = Rng.create (10 + n) in
  let x = T.randn rng [| n; 8; 16; 16 |] in
  let w = T.randn rng [| 8; 8; 3; 3 |] in
  let b = T.randn rng [| 8 |] in
  let y, r, gx, gp =
    run_batch
      (fun xv -> function
        | [ wv; bv ] -> V.conv2d ~pad:1 xv ~weight:wv ~bias:(Some bv)
        | _ -> assert false)
      x [ w; b ]
  in
  let gw, gb = match gp with [ gw; gb ] -> (gw, gb) | _ -> assert false in
  let ys = List.init n (fun s -> T.conv2d_batch ~pad:1 (sample x s) ~weight:w ~bias:(Some b)) in
  check_bits "conv2d output" (T.cat_batch ys) y;
  let gxs =
    List.init n (fun s ->
        T.conv2d_backward_input_batch ~pad:1 ~input_shape:[| 8; 16; 16 |] ~weight:w
          (sample r s))
  in
  check_bits "conv2d input grad" (T.cat_batch gxs) gx;
  check_bits "conv2d weight grad"
    (sum_in_order
       (List.init n (fun s ->
            T.conv2d_backward_weight_batch ~pad:1 ~input:(sample x s)
              ~weight_shape:[| 8; 8; 3; 3 |] (sample r s))))
    gw;
  (* per sample: each channel's pixels summed from 0. in order *)
  let channel_sums g =
    T.init [| 8 |] (fun i ->
        let acc = ref 0. in
        for p = 0 to 255 do
          acc := !acc +. T.get_flat g ((i.(0) * 256) + p)
        done;
        !acc)
  in
  check_bits "conv2d bias grad"
    (sum_in_order (List.init n (fun s -> channel_sums (sample r s))))
    gb

let conv_transpose_case n =
  let rng = Rng.create (20 + n) in
  let x = T.randn rng [| n; 16; 8; 8 |] in
  let w = T.randn rng [| 16; 8; 2; 2 |] in
  let y, r, gx, gp =
    run_batch
      (fun xv -> function
        | [ wv ] -> V.conv2d_transpose ~stride:2 xv ~weight:wv ~bias:None
        | _ -> assert false)
      x [ w ]
  in
  let ys =
    List.init n (fun s -> T.conv2d_transpose_batch ~stride:2 (sample x s) ~weight:w ~bias:None)
  in
  check_bits "convT output" (T.cat_batch ys) y;
  check_bits "convT input grad"
    (T.cat_batch
       (List.init n (fun s -> T.conv2d_batch ~stride:2 (sample r s) ~weight:w ~bias:None)))
    gx;
  check_bits "convT weight grad"
    (sum_in_order
       (List.init n (fun s ->
            T.conv2d_backward_weight_batch ~stride:2 ~input:(sample r s)
              ~weight_shape:[| 16; 8; 2; 2 |] (sample x s))))
    (List.hd gp)

let pool_concat_case n =
  let rng = Rng.create (30 + n) in
  let x = T.randn rng [| n; 3; 8; 8 |] in
  let other = T.randn rng [| n; 2; 4; 4 |] in
  let y, r, gx, _ =
    run_batch
      (fun xv _ -> V.concat_channels [ V.maxpool2 xv; V.const other ])
      x []
  in
  let ys =
    List.init n (fun s ->
        T.concat_channels [ fst (T.maxpool2 (sample x s)); sample other s ])
  in
  check_bits "maxpool+concat output" (T.cat_batch ys) y;
  check_bits "maxpool+concat input grad"
    (T.cat_batch
       (List.init n (fun s ->
            let _, arg = T.maxpool2 (sample x s) in
            T.maxpool2_backward ~input_shape:[| 3; 8; 8 |] arg
              (T.slice_channels (sample r s) 0 3))))
    gx

(* stack / batch_slice / swap_halves move samples and nothing else. *)
let batch_axis_case n =
  let rng = Rng.create (40 + n) in
  let a = T.randn rng [| n; 2; 4; 4 |] and b = T.randn rng [| n; 2; 4; 4 |] in
  let av = V.param (T.copy a) and bv = V.param (T.copy b) in
  let s = V.swap_halves (V.stack [ av; bv ]) in
  let lo = V.batch_slice s 0 n and hi = V.batch_slice s n n in
  check_bits "swap puts b first" b (V.data lo);
  check_bits "swap puts a second" a (V.data hi);
  let ra = T.randn rng [| n; 2; 4; 4 |] and rb = T.randn rng [| n; 2; 4; 4 |] in
  V.backward (V.add (V.dot lo (V.const rb)) (V.dot hi (V.const ra)));
  check_bits "grad reaches a" ra (V.grad av);
  check_bits "grad reaches b" rb (V.grad bv)

let for_batches case () =
  List.iter case [ 1; 2; 3 ];
  with_jobs 3 (fun () -> List.iter case [ 1; 2; 3 ])

let test_gradcheck_batched () =
  let rng = Rng.create 50 in
  let x0 = T.randn rng [| 2; 2; 4; 4 |] in
  let w = T.randn rng [| 3; 2; 3; 3 |] in
  let gc name f x =
    Alcotest.(check bool) name true (V.gradient_check ~tol:1e-4 f x)
  in
  gc "conv2d input" (fun x -> V.sum (V.sqr (V.conv2d ~pad:1 x ~weight:(V.const w) ~bias:None))) x0;
  gc "conv2d weight"
    (fun wv -> V.sum (V.sqr (V.conv2d ~pad:1 (V.const x0) ~weight:wv ~bias:None)))
    w;
  let tw = T.randn rng [| 2; 3; 2; 2 |] in
  gc "convT input"
    (fun x -> V.sum (V.sqr (V.conv2d_transpose ~stride:2 x ~weight:(V.const tw) ~bias:None)))
    x0;
  gc "convT weight"
    (fun wv -> V.sum (V.sqr (V.conv2d_transpose ~stride:2 (V.const x0) ~weight:wv ~bias:None)))
    tw;
  gc "maxpool + concat"
    (fun x -> V.sum (V.sqr (V.concat_channels [ V.maxpool2 x; V.maxpool2 (V.scale 2. x) ])))
    x0;
  gc "stack / swap / slice"
    (fun x ->
      let s = V.swap_halves (V.stack [ x; V.scale 3. x ]) in
      V.sum (V.mul (V.batch_slice s 0 2) (V.sqr (V.batch_slice s 2 2))))
    x0

let test_no_grad () =
  let w = V.param (T.randn (Rng.create 60) [| 2; 2; 3; 3 |]) in
  let x = V.const (T.randn (Rng.create 61) [| 2; 2; 4; 4 |]) in
  let conv () = V.conv2d ~pad:1 x ~weight:w ~bias:None in
  Alcotest.(check bool) "records by default" true (V.requires_grad (conv ()));
  Alcotest.(check bool) "no_grad records no node" false
    (V.no_grad (fun () -> V.requires_grad (conv ())));
  Alcotest.(check bool) "same forward bits" true
    (bits (V.data (conv ())) = bits (V.no_grad (fun () -> V.data (conv ()))));
  (* domain-local: another domain keeps recording meanwhile *)
  let other =
    V.no_grad (fun () -> Domain.join (Domain.spawn (fun () -> V.requires_grad (conv ()))))
  in
  Alcotest.(check bool) "other domain still records" true other;
  (* restored when the body raises, and nesting restores the outer mode *)
  (try V.no_grad (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "restored after raise" true (V.requires_grad (conv ()));
  V.no_grad (fun () ->
      V.no_grad ignore;
      Alcotest.(check bool) "nested exit keeps outer no_grad" false
        (V.requires_grad (conv ())))

let suites =
  [
    ( "autodiff.batch",
      [
        Alcotest.test_case "conv2d N=1,2,3" `Quick (for_batches conv_case);
        Alcotest.test_case "conv2d_transpose N=1,2,3" `Quick
          (for_batches conv_transpose_case);
        Alcotest.test_case "maxpool2/concat N=1,2,3" `Quick
          (for_batches pool_concat_case);
        Alcotest.test_case "stack/slice/swap N=1,2,3" `Quick
          (for_batches batch_axis_case);
        Alcotest.test_case "gradcheck batched ops" `Quick test_gradcheck_batched;
        Alcotest.test_case "no_grad" `Quick test_no_grad;
      ] );
  ]
