(* Property tests for the convolution kernels against naive references.

   The contract under test is strict bit-identity: for EVERY shape,
   stride and padding — including degenerate ones (pad larger than the
   kernel, 1x1 inputs, odd channel counts, rows that end mid-tile) —
   each [_batch] kernel must produce exactly the floats of the naive
   loop nests below, at n = 1, 2, 3 samples, at DCO3D_JOBS=1 and on a
   real 4-domain pool.  The references fix the summation order the
   digests depend on (forward (c, ky, kx); backward-input (o, ky, kx);
   backward-weight (oy, ox); transposed c, iy, ix; bias last), so the
   comparison is on the bit patterns, never a tolerance. *)

module Pool = Dco3d_parallel.Pool
module T = Dco3d_tensor.Tensor
module Rng = Dco3d_tensor.Rng

let bits_equal a b =
  T.shape a = T.shape b
  &&
  let ok = ref true in
  for i = 0 to T.numel a - 1 do
    if Int64.bits_of_float (T.get_flat a i) <> Int64.bits_of_float (T.get_flat b i)
    then ok := false
  done;
  !ok

let exact_tensor = Alcotest.testable T.pp bits_equal

let with_exact_jobs n f =
  Pool.set_jobs ~exact:true n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

(* Run [check] sequentially and on a genuine 4-domain pool (the exact
   flag bypasses the hardware clamp on single-core CI hosts). *)
let on_both_schedules check =
  check "jobs=1";
  with_exact_jobs 4 (fun () -> check "jobs=4")

(* ---- naive references, one sample [c; h; w] at a time --------------- *)

let conv_out_dim x k ~stride ~pad = (((x + (2 * pad)) - k) / stride) + 1
let transpose_out_dim x k ~stride ~pad = ((x - 1) * stride) - (2 * pad) + k

let with_bias bias o acc =
  match bias with Some b -> acc +. T.get_flat b o | None -> acc

(* out[o, oy, ox]: (c, ky, kx) ascending, then the bias *)
let ref_conv ~stride ~pad x w bias =
  let ci = T.dim x 0 and h = T.dim x 1 and wd = T.dim x 2 in
  let co = T.dim w 0 and kh = T.dim w 2 and kw = T.dim w 3 in
  let oh = conv_out_dim h kh ~stride ~pad and ow = conv_out_dim wd kw ~stride ~pad in
  T.init [| co; oh; ow |] (fun i ->
      let o = i.(0) and oy = i.(1) and ox = i.(2) in
      let acc = ref 0. in
      for c = 0 to ci - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
            if iy >= 0 && iy < h && ix >= 0 && ix < wd then
              acc := !acc +. (T.get w [| o; c; ky; kx |] *. T.get3 x c iy ix)
          done
        done
      done;
      with_bias bias o !acc)

(* gin[c, iy, ix]: (o, ky, kx) ascending over the taps that land on an
   output pixel *)
let ref_backward_input ~stride ~pad ~input_shape w g =
  let co = T.dim g 0 and oh = T.dim g 1 and ow = T.dim g 2 in
  let kh = T.dim w 2 and kw = T.dim w 3 in
  T.init input_shape (fun i ->
      let c = i.(0) and iy = i.(1) and ix = i.(2) in
      let acc = ref 0. in
      for o = 0 to co - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let ty = iy + pad - ky and tx = ix + pad - kx in
            if
              ty >= 0 && tx >= 0 && ty mod stride = 0 && tx mod stride = 0
              && ty / stride < oh && tx / stride < ow
            then
              acc :=
                !acc
                +. (T.get w [| o; c; ky; kx |] *. T.get3 g o (ty / stride) (tx / stride))
          done
        done
      done;
      !acc)

(* gw[o, c, ky, kx]: (oy, ox) ascending *)
let ref_backward_weight ~stride ~pad ~weight_shape x g =
  let h = T.dim x 1 and wd = T.dim x 2 in
  let oh = T.dim g 1 and ow = T.dim g 2 in
  T.init weight_shape (fun i ->
      let o = i.(0) and c = i.(1) and ky = i.(2) and kx = i.(3) in
      let acc = ref 0. in
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let iy = (oy * stride) + ky - pad and ix = (ox * stride) + kx - pad in
          if iy >= 0 && iy < h && ix >= 0 && ix < wd then
            acc := !acc +. (T.get3 g o oy ox *. T.get3 x c iy ix)
        done
      done;
      !acc)

(* out[o, oy, ox]: c, then iy, then ix ascending, then the bias *)
let ref_transpose ~stride ~pad x w bias =
  let ci = T.dim x 0 and h = T.dim x 1 and wd = T.dim x 2 in
  let co = T.dim w 1 and kh = T.dim w 2 and kw = T.dim w 3 in
  let oh = transpose_out_dim h kh ~stride ~pad in
  let ow = transpose_out_dim wd kw ~stride ~pad in
  T.init [| co; oh; ow |] (fun i ->
      let o = i.(0) and oy = i.(1) and ox = i.(2) in
      let acc = ref 0. in
      for c = 0 to ci - 1 do
        for iy = 0 to h - 1 do
          for ix = 0 to wd - 1 do
            let ky = oy + pad - (iy * stride) and kx = ox + pad - (ix * stride) in
            if ky >= 0 && ky < kh && kx >= 0 && kx < kw then
              acc := !acc +. (T.get3 x c iy ix *. T.get w [| c; o; ky; kx |])
          done
        done
      done;
      with_bias bias o !acc)

(* ---- cases ------------------------------------------------------------ *)

type conv_case = {
  ci : int;
  co : int;
  h : int;
  w : int;
  kh : int;
  kw : int;
  stride : int;
  pad : int;
  bias : bool;
}

let case_name tag c =
  Printf.sprintf "%s %dx%dx%d w=%dx%dx%dx%d s=%d p=%d%s" tag c.ci c.h c.w
    c.co c.ci c.kh c.kw c.stride c.pad
    (if c.bias then " bias" else "")

let valid_conv c =
  conv_out_dim c.h c.kh ~stride:c.stride ~pad:c.pad >= 1
  && conv_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad >= 1

let valid_transpose c =
  transpose_out_dim c.h c.kh ~stride:c.stride ~pad:c.pad >= 1
  && transpose_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad >= 1

(* Random but reproducible case stream; candidates that would produce an
   empty output are discarded before they reach the kernels. *)
let random_cases rng ~n ~valid =
  let rec draw () =
    let c =
      {
        ci = 1 + Rng.int rng 4;
        co = 1 + Rng.int rng 4;
        h = 1 + Rng.int rng 13;
        w = 1 + Rng.int rng 13;
        kh = 1 + Rng.int rng 5;
        kw = 1 + Rng.int rng 5;
        stride = 1 + Rng.int rng 2;
        (* up to kernel + 2: deliberately allows pad > kernel *)
        pad = Rng.int rng 6;
        bias = Rng.bool rng;
      }
    in
    if valid c then c else draw ()
  in
  List.init n (fun _ -> draw ())

(* A sweep over square kernels 1..5, strides 1 and 2, pads 0..5, odd and
   even channel counts, with the row width stepping through four
   consecutive values so each kernel's rows end at every position of a
   4-pixel tile. *)
let sweep_cases ~valid =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun stride ->
          List.filter_map
            (fun r ->
              let c =
                {
                  ci = 1 + ((k + r) mod 3);
                  co = 1 + (((k * stride) + r) mod 4);
                  h = 3 + k + r;
                  w = 5 + (2 * k) + r;
                  kh = k;
                  kw = k;
                  stride;
                  pad = (k + r + stride) mod 6;
                  bias = r mod 2 = 0;
                }
              in
              if valid c then Some c else None)
            [ 0; 1; 2; 3 ])
        [ 1; 2 ])
    [ 1; 2; 3; 4; 5 ]

(* Hand-picked corners that a random draw might miss. *)
let corner_cases =
  [
    (* pad strictly larger than the kernel, both parities *)
    { ci = 2; co = 3; h = 5; w = 7; kh = 2; kw = 2; stride = 1; pad = 3; bias = true };
    { ci = 1; co = 1; h = 4; w = 4; kh = 3; kw = 1; stride = 2; pad = 4; bias = false };
    (* 1x1 input, kernel covers it only via padding *)
    { ci = 3; co = 2; h = 1; w = 1; kh = 3; kw = 3; stride = 1; pad = 1; bias = true };
    (* 1x1 kernel degenerates to a pure channel mix *)
    { ci = 4; co = 5; h = 9; w = 6; kh = 1; kw = 1; stride = 1; pad = 0; bias = false };
    (* wide rectangular kernel with stride *)
    { ci = 2; co = 5; h = 11; w = 13; kh = 1; kw = 5; stride = 3; pad = 2; bias = true };
    (* the UNet's 2x2 stride-2 shape *)
    { ci = 6; co = 3; h = 8; w = 10; kh = 2; kw = 2; stride = 2; pad = 0; bias = true };
    (* above conv_par_macs per sample with an odd channel count, so the
       jobs=4 schedule splits one sample's channel pairs across domains *)
    { ci = 9; co = 7; h = 32; w = 30; kh = 3; kw = 3; stride = 1; pad = 1; bias = true };
  ]

(* [n] samples of [shape] as one batch; n = 1 is passed as a rank-3
   sample, which the batched kernels accept and return at rank 3. *)
let batch_of ?(prep = Fun.id) rng n shape =
  let xs = List.init n (fun _ -> prep (T.randn rng shape)) in
  (xs, if n = 1 then List.hd xs else T.stack (Array.of_list xs))

let samples t = if T.rank t = 3 then [ t ] else Array.to_list (T.unstack t)
let rejoin ts = match ts with [ t ] -> t | _ -> T.stack (Array.of_list ts)

(* Ascending-sample sum of per-sample weight gradients. *)
let sum_in_order = function
  | [] -> invalid_arg "sum_in_order"
  | g :: rest -> List.fold_left T.add g rest

let batches = [ 1; 2; 3 ]

let check_forward ?(prep = Fun.id) rng c =
  let w = prep (T.randn rng [| c.co; c.ci; c.kh; c.kw |]) in
  let bias = if c.bias then Some (T.randn rng [| c.co |]) else None in
  List.iter
    (fun n ->
      let xs, x = batch_of ~prep rng n [| c.ci; c.h; c.w |] in
      let expect = rejoin (List.map (fun x -> ref_conv ~stride:c.stride ~pad:c.pad x w bias) xs) in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor
            (Printf.sprintf "%s n=%d %s" (case_name "conv2d" c) n sched)
            expect
            (T.conv2d_batch ~stride:c.stride ~pad:c.pad x ~weight:w ~bias)))
    batches

let check_backwards ?(prep = Fun.id) rng c =
  let w = prep (T.randn rng [| c.co; c.ci; c.kh; c.kw |]) in
  let oh = conv_out_dim c.h c.kh ~stride:c.stride ~pad:c.pad in
  let ow = conv_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad in
  List.iter
    (fun n ->
      let xs, x = batch_of ~prep rng n [| c.ci; c.h; c.w |] in
      let gs, g = batch_of ~prep rng n [| c.co; oh; ow |] in
      let expect_in =
        rejoin
          (List.map
             (ref_backward_input ~stride:c.stride ~pad:c.pad
                ~input_shape:[| c.ci; c.h; c.w |] w)
             gs)
      in
      let expect_w =
        sum_in_order
          (List.map2
             (ref_backward_weight ~stride:c.stride ~pad:c.pad
                ~weight_shape:(T.shape w))
             xs gs)
      in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor
            (Printf.sprintf "%s n=%d %s" (case_name "bwd_input" c) n sched)
            expect_in
            (T.conv2d_backward_input_batch ~stride:c.stride ~pad:c.pad
               ~input_shape:(T.shape x) ~weight:w g);
          Alcotest.check exact_tensor
            (Printf.sprintf "%s n=%d %s" (case_name "bwd_weight" c) n sched)
            expect_w
            (T.conv2d_backward_weight_batch ~stride:c.stride ~pad:c.pad
               ~input:x ~weight_shape:(T.shape w) g)))
    batches

let check_transpose ?(prep = Fun.id) rng c =
  (* transposed-conv weight layout is [ci; co; kh; kw] *)
  let w = prep (T.randn rng [| c.ci; c.co; c.kh; c.kw |]) in
  let bias = if c.bias then Some (T.randn rng [| c.co |]) else None in
  List.iter
    (fun n ->
      let xs, x = batch_of ~prep rng n [| c.ci; c.h; c.w |] in
      let expect =
        rejoin (List.map (fun x -> ref_transpose ~stride:c.stride ~pad:c.pad x w bias) xs)
      in
      on_both_schedules (fun sched ->
          Alcotest.check exact_tensor
            (Printf.sprintf "%s n=%d %s" (case_name "transpose" c) n sched)
            expect
            (T.conv2d_transpose_batch ~stride:c.stride ~pad:c.pad x ~weight:w ~bias)))
    batches

(* Every residue of the output (forward, transposed) or input
   (backward-input) row width mod 4 must occur in a case list. *)
let check_residues name widths =
  List.iter
    (fun r ->
      if not (List.exists (fun w -> w mod 4 = r) widths) then
        Alcotest.failf "%s: no case with row width = %d mod 4" name r)
    [ 0; 1; 2; 3 ]

let conv_cases rng = corner_cases @ sweep_cases ~valid:valid_conv @ random_cases rng ~n:30 ~valid:valid_conv
let transpose_cases rng =
  List.filter valid_transpose corner_cases
  @ sweep_cases ~valid:valid_transpose
  @ random_cases rng ~n:30 ~valid:valid_transpose

let test_conv2d () =
  let rng = Rng.create 0xC0417 in
  let cases = conv_cases rng in
  check_residues "conv2d"
    (List.map (fun c -> conv_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad) cases);
  List.iter (check_forward rng) cases

let test_backwards () =
  let rng = Rng.create 0xC0418 in
  let cases = conv_cases rng in
  check_residues "bwd_input" (List.map (fun c -> c.w) cases);
  List.iter (check_backwards rng) cases

let test_transpose () =
  let rng = Rng.create 0xC0419 in
  let cases = transpose_cases rng in
  check_residues "transpose"
    (List.map (fun c -> transpose_out_dim c.w c.kw ~stride:c.stride ~pad:c.pad) cases);
  List.iter (check_transpose rng) cases

(* Zero weights (both signs) and -0.0 activations: the kernels add their
   w.0 and 0.x terms where the references skip them, and a chain that
   starts at +0. must come out with the same bits either way. *)
let test_signed_zeros () =
  let rng = Rng.create 0xC041B in
  let prep t =
    T.init (T.shape t) (fun i ->
        let v = T.get t i in
        match Array.fold_left ( + ) 0 i mod 4 with
        | 0 -> 0.
        | 1 -> -0.
        | _ -> v)
  in
  let cases = List.filteri (fun i _ -> i mod 3 = 0) (sweep_cases ~valid:valid_conv) in
  List.iter
    (fun c ->
      check_forward ~prep rng c;
      check_backwards ~prep rng c)
    (List.hd corner_cases :: cases);
  List.iter (check_transpose ~prep rng)
    (List.filteri (fun i _ -> i mod 3 = 0) (sweep_cases ~valid:valid_transpose))

(* The packed-GEMM matmul must agree bitwise with a naive row-major
   triple loop accumulating the inner dimension in ascending order. *)
let test_matmul_vs_reference () =
  let rng = Rng.create 0xC041A in
  for case = 1 to 20 do
    (* the last cases exceed matmul_par_macs so the jobs=4 schedule
       exercises real cross-domain row bands *)
    let big = if case > 17 then 60 else 0 in
    let m = big + 1 + Rng.int rng 40
    and k = big + 1 + Rng.int rng 40
    and n = big + 1 + Rng.int rng 40 in
    let a = T.randn rng [| m; k |] and b = T.randn rng [| k; n |] in
    let reference =
      T.init [| m; n |] (fun idx ->
          let i = idx.(0) and j = idx.(1) in
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc := !acc +. (T.get2 a i p *. T.get2 b p j)
          done;
          !acc)
    in
    on_both_schedules (fun sched ->
        Alcotest.check exact_tensor
          (Printf.sprintf "matmul %dx%dx%d %s" m k n sched)
          reference (T.matmul a b))
  done

let suites =
  [
    ( "tensor.conv_ref",
      [
        Alcotest.test_case "conv2d == reference" `Quick test_conv2d;
        Alcotest.test_case "backwards == reference" `Quick test_backwards;
        Alcotest.test_case "transpose == reference" `Quick test_transpose;
        Alcotest.test_case "signed zeros == reference" `Quick test_signed_zeros;
        Alcotest.test_case "matmul == naive reference" `Quick
          test_matmul_vs_reference;
      ] );
  ]
