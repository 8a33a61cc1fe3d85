type t = { shape : int array; data : float array }

module Pool = Dco3d_parallel.Pool

(* Per-kernel parallel thresholds, in scalar multiply-adds (MACs).
   A kernel below its threshold stays on the calling domain: pool-v2
   dispatch costs a couple of microseconds (two atomic writes plus a
   worker wake-up), so a region is only worth opening when every helper
   gets well over that in work.  The packed GEMM amortizes dispatch
   fastest (dense FMAs); matvec is memory-bound (one float of traffic
   per MAC leaves little for extra cores), so it gets a higher floor.
   The conv kernels split a lone sample's output-channel pairs
   (input-channel pairs for backward-input) across domains above
   [conv_par_macs]; every 3x3 conv of the UNet at 32x32 input
   (295k-1.2M MACs a sample) clears it, while its 1x1 convs stay
   inline.  Inside a batch chunk ([for_batch]) every sample runs inline
   anyway.

     kernel                  threshold (MACs)  first clearly-winning shape
     matmul / packed GEMM    1 lsl 17          128 x 128 x 128
     conv2d family           1 lsl 17          8ch 32x32, 3x3 kernel
     matvec                  1 lsl 18          512 x 512

   The guards depend only on the problem size — never on the job
   count — so the sequential and pooled paths agree bit-for-bit at
   every DCO3D_JOBS value. *)
let matmul_par_macs = 1 lsl 17
let conv_par_macs = 1 lsl 17
let matvec_par_macs = 1 lsl 18

let numel_of_shape shape = Array.fold_left ( * ) 1 shape

let make shape data =
  let n = numel_of_shape shape in
  if Array.length data <> n then
    invalid_arg
      (Printf.sprintf "Tensor.make: shape implies %d elements, got %d" n
         (Array.length data));
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Tensor.make: negative dimension")
    shape;
  { shape = Array.copy shape; data }

let zeros shape = make shape (Array.make (numel_of_shape shape) 0.)
let ones shape = make shape (Array.make (numel_of_shape shape) 1.)
let full shape v = make shape (Array.make (numel_of_shape shape) v)
let scalar v = make [||] [| v |]
let of_array1 a = make [| Array.length a |] (Array.copy a)

let of_array2 rows =
  let m = Array.length rows in
  if m = 0 then make [| 0; 0 |] [||]
  else begin
    let n = Array.length rows.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> n then
          invalid_arg "Tensor.of_array2: ragged rows")
      rows;
    let data = Array.make (m * n) 0. in
    for i = 0 to m - 1 do
      Array.blit rows.(i) 0 data (i * n) n
    done;
    make [| m; n |] data
  end

let shape t = Array.copy t.shape
let numel t = Array.length t.data
let rank t = Array.length t.shape
let dim t i = t.shape.(i)
let copy t = { shape = Array.copy t.shape; data = Array.copy t.data }
let same_shape a b = a.shape = b.shape

let reshape t shape =
  let n = numel_of_shape shape in
  if n <> Array.length t.data then
    invalid_arg "Tensor.reshape: element count mismatch";
  (* the data array is deliberately aliased (see the interface); the
     shape array is copied so a caller mutating its own array cannot
     corrupt the tensor *)
  { shape = Array.copy shape; data = t.data }

let reshape_copy t shape =
  let n = numel_of_shape shape in
  if n <> Array.length t.data then
    invalid_arg "Tensor.reshape_copy: element count mismatch";
  { shape = Array.copy shape; data = Array.copy t.data }

(* Row-major flat offset of a multi-index. *)
let offset t idx =
  let r = Array.length t.shape in
  if Array.length idx <> r then invalid_arg "Tensor: index rank mismatch";
  let off = ref 0 in
  for k = 0 to r - 1 do
    let i = idx.(k) in
    if i < 0 || i >= t.shape.(k) then invalid_arg "Tensor: index out of bounds";
    off := (!off * t.shape.(k)) + i
  done;
  !off

let init shape f =
  let n = numel_of_shape shape in
  let r = Array.length shape in
  let idx = Array.make r 0 in
  let data =
    Array.init n (fun _ ->
        let v = f idx in
        (* advance the multi-index (row-major). *)
        let k = ref (r - 1) in
        let carry = ref true in
        while !carry && !k >= 0 do
          idx.(!k) <- idx.(!k) + 1;
          if idx.(!k) >= shape.(!k) then begin
            idx.(!k) <- 0;
            decr k
          end
          else carry := false
        done;
        v)
  in
  make shape data

let get t idx = t.data.(offset t idx)
let set t idx v = t.data.(offset t idx) <- v
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- v

let get2 t i j = t.data.((i * t.shape.(1)) + j)
let set2 t i j v = t.data.((i * t.shape.(1)) + j) <- v

let get3 t c i j =
  let h = t.shape.(1) and w = t.shape.(2) in
  t.data.((((c * h) + i) * w) + j)

let set3 t c i j v =
  let h = t.shape.(1) and w = t.shape.(2) in
  t.data.((((c * h) + i) * w) + j) <- v

let rand_uniform rng ?(lo = 0.) ?(hi = 1.) shape =
  let n = numel_of_shape shape in
  make shape (Array.init n (fun _ -> Rng.range rng lo hi))

let randn rng ?(mu = 0.) ?(sigma = 1.) shape =
  let n = numel_of_shape shape in
  make shape (Array.init n (fun _ -> Rng.gaussian ~mu ~sigma rng))

let kaiming rng ~fan_in shape =
  if fan_in <= 0 then invalid_arg "Tensor.kaiming: fan_in must be positive";
  randn rng ~sigma:(sqrt (2. /. float_of_int fan_in)) shape

let map f t = { shape = t.shape; data = Array.map f t.data }

let map2 f a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch";
  let n = Array.length a.data in
  let data = Array.make n 0. in
  for i = 0 to n - 1 do
    Array.unsafe_set data i
      (f (Array.unsafe_get a.data i) (Array.unsafe_get b.data i))
  done;
  { shape = a.shape; data }

let iteri_flat f t = Array.iteri f t.data

(* The hot elementwise ops of the UNet tape run as direct loops: [map]
   and [map2] call a closure per element, which boxes every argument
   and result.  The binary ones keep [map2]'s shape check. *)
let zip_out a b =
  if not (same_shape a b) then invalid_arg "Tensor.map2: shape mismatch";
  Array.make (Array.length a.data) 0.

let add a b =
  let out = zip_out a b in
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (Array.unsafe_get a.data i +. Array.unsafe_get b.data i)
  done;
  { shape = a.shape; data = out }

let sub a b =
  let out = zip_out a b in
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (Array.unsafe_get a.data i -. Array.unsafe_get b.data i)
  done;
  { shape = a.shape; data = out }

let mul a b =
  let out = zip_out a b in
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  { shape = a.shape; data = out }

let div a b = map2 ( /. ) a b
let neg t = map (fun x -> -.x) t

let scale s t =
  let out = Array.make (Array.length t.data) 0. in
  for i = 0 to Array.length out - 1 do
    Array.unsafe_set out i (s *. Array.unsafe_get t.data i)
  done;
  { shape = t.shape; data = out }

let add_scalar s t = map (fun x -> s +. x) t

let leaky_relu slope t =
  let out = Array.make (Array.length t.data) 0. in
  for i = 0 to Array.length out - 1 do
    let x = Array.unsafe_get t.data i in
    Array.unsafe_set out i (if x > 0. then x else slope *. x)
  done;
  { shape = t.shape; data = out }

let relu t =
  let out = Array.make (Array.length t.data) 0. in
  for i = 0 to Array.length out - 1 do
    let x = Array.unsafe_get t.data i in
    if x > 0. then Array.unsafe_set out i x
  done;
  { shape = t.shape; data = out }

let leaky_relu_backward slope ~input g =
  let out = zip_out g input in
  for i = 0 to Array.length out - 1 do
    let gv = Array.unsafe_get g.data i in
    Array.unsafe_set out i
      (if Array.unsafe_get input.data i > 0. then gv else slope *. gv)
  done;
  { shape = g.shape; data = out }

let relu_backward ~input g =
  let out = zip_out g input in
  for i = 0 to Array.length out - 1 do
    if Array.unsafe_get input.data i > 0. then
      Array.unsafe_set out i (Array.unsafe_get g.data i)
  done;
  { shape = g.shape; data = out }
let sigmoid t = map (fun x -> 1. /. (1. +. exp (-.x))) t
let tanh_ t = map tanh t
let exp_ t = map exp t
let log_ t = map log t
let sqrt_ t = map sqrt t
let sqr t = map (fun x -> x *. x) t

let clip ~lo ~hi t =
  map (fun x -> if x < lo then lo else if x > hi then hi else x) t

let axpy ~alpha x y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  let n = Array.length x.data in
  for i = 0 to n - 1 do
    Array.unsafe_set y.data i
      (Array.unsafe_get y.data i +. (alpha *. Array.unsafe_get x.data i))
  done

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let sum t = Array.fold_left ( +. ) 0. t.data

let mean t =
  let n = Array.length t.data in
  if n = 0 then 0. else sum t /. float_of_int n

let max_elt t = Array.fold_left Float.max neg_infinity t.data
let min_elt t = Array.fold_left Float.min infinity t.data
let fold f acc t = Array.fold_left f acc t.data

let dot a b =
  if not (same_shape a b) then invalid_arg "Tensor.dot: shape mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a.data - 1 do
    acc := !acc +. (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  !acc

let frobenius t = sqrt (dot t t)

(* ------------------------------------------------------------------ *)
(* Packed GEMM engine (the kernel behind [matmul]).                    *)
(*                                                                     *)
(* C (m x n) += A (m x k) . B (k x n), with B pre-packed into quads of *)
(* four columns so the register-tiled micro-kernel streams it with     *)
(* unit stride.  Bit-exactness contract: for every output element the  *)
(* inner index [p] is accumulated in strictly ascending order in one   *)
(* continuous left-to-right chain, which is exactly the order of the   *)
(* naive triple loop — so any row-banding across domains produces      *)
(* identical bits.                                                     *)
(* ------------------------------------------------------------------ *)

(* Packed layout of a (k x n) B: full quads first — quad q holds        *)
(* columns 4q..4q+3, element (p, 4q+t) at q*4k + 4p + t — then a tail   *)
(* block of r = n mod 4 columns with element (p, j) at nq*4k + p*r +    *)
(* (j - 4*nq).                                                          *)

(* Copy logical row [p] of B (given contiguously in [src] at            *)
(* [src_off .. src_off+n-1]) into the packed buffer [pb]. *)
let pack_row ~k ~n pb p src src_off =
  let nq = n lsr 2 in
  let r = n - (nq lsl 2) in
  let k4 = k lsl 2 in
  let p4 = p lsl 2 in
  for q = 0 to nq - 1 do
    let dst = (q * k4) + p4 in
    let s = src_off + (q lsl 2) in
    Array.unsafe_set pb dst (Array.unsafe_get src s);
    Array.unsafe_set pb (dst + 1) (Array.unsafe_get src (s + 1));
    Array.unsafe_set pb (dst + 2) (Array.unsafe_get src (s + 2));
    Array.unsafe_set pb (dst + 3) (Array.unsafe_get src (s + 3))
  done;
  if r > 0 then begin
    let dst = (nq * k4) + (p * r) in
    let s = src_off + (nq lsl 2) in
    for t = 0 to r - 1 do
      Array.unsafe_set pb (dst + t) (Array.unsafe_get src (s + t))
    done
  end

(* Row band [i0, i1) of C.  Four independent accumulator chains per     *)
(* column quad keep the FP adder pipeline full (one serial add chain    *)
(* per output element was the old kernel's bottleneck); each chain      *)
(* still sums its p-terms in ascending order starting from C's current  *)
(* value, preserving the reference bit pattern.  The 4k-float quad      *)
(* block stays L1-resident across the band's rows. *)
let gemm_band ~k ~n ad pb out i0 i1 =
  let nq = n lsr 2 in
  let r = n - (nq lsl 2) in
  let k4 = k lsl 2 in
  for q = 0 to nq - 1 do
    let base = q * k4 in
    let jcol = q lsl 2 in
    for i = i0 to i1 - 1 do
      let arow = i * k in
      let orow = (i * n) + jcol in
      let acc0 = ref (Array.unsafe_get out orow) in
      let acc1 = ref (Array.unsafe_get out (orow + 1)) in
      let acc2 = ref (Array.unsafe_get out (orow + 2)) in
      let acc3 = ref (Array.unsafe_get out (orow + 3)) in
      for p = 0 to k - 1 do
        let av = Array.unsafe_get ad (arow + p) in
        let bb = base + (p lsl 2) in
        acc0 := !acc0 +. (av *. Array.unsafe_get pb bb);
        acc1 := !acc1 +. (av *. Array.unsafe_get pb (bb + 1));
        acc2 := !acc2 +. (av *. Array.unsafe_get pb (bb + 2));
        acc3 := !acc3 +. (av *. Array.unsafe_get pb (bb + 3))
      done;
      Array.unsafe_set out orow !acc0;
      Array.unsafe_set out (orow + 1) !acc1;
      Array.unsafe_set out (orow + 2) !acc2;
      Array.unsafe_set out (orow + 3) !acc3
    done
  done;
  if r > 0 then begin
    let base = nq * k4 in
    let jcol = nq lsl 2 in
    for i = i0 to i1 - 1 do
      let arow = i * k in
      let orow = (i * n) + jcol in
      for t = 0 to r - 1 do
        let acc = ref (Array.unsafe_get out (orow + t)) in
        for p = 0 to k - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get ad (arow + p)
               *. Array.unsafe_get pb (base + (p * r) + t))
        done;
        Array.unsafe_set out (orow + t) !acc
      done
    done
  end

(* [out] must hold the addend (usually zeros).  Row banding never
   changes result bits, so the parallel split is free to follow the
   machine. *)
let gemm ~m ~k ~n ad pb out =
  if m > 0 && n > 0 && k > 0 then
    if m * n * k < matmul_par_macs then gemm_band ~k ~n ad pb out 0 m
    else
      Pool.for_chunks
        ~chunk:(max 1 ((m + 63) / 64))
        0 m
        (fun i0 i1 -> gemm_band ~k ~n ad pb out i0 i1)

let matmul a b =
  if rank a <> 2 || rank b <> 2 then invalid_arg "Tensor.matmul: rank-2 only";
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then invalid_arg "Tensor.matmul: inner dimension mismatch";
  let out = Array.make (m * n) 0. in
  if m > 0 && n > 0 && k > 0 then
    Workspace.with_floats (k * n) (fun pb ->
        let bd = b.data in
        for p = 0 to k - 1 do
          pack_row ~k ~n pb p bd (p * n)
        done;
        gemm ~m ~k ~n a.data pb out);
  make [| m; n |] out

let transpose2 t =
  if rank t <> 2 then invalid_arg "Tensor.transpose2: rank-2 only";
  let m = t.shape.(0) and n = t.shape.(1) in
  let out = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Array.unsafe_set out ((j * m) + i) (Array.unsafe_get t.data ((i * n) + j))
    done
  done;
  make [| n; m |] out

let matvec a x =
  if rank a <> 2 || rank x <> 1 then invalid_arg "Tensor.matvec: bad ranks";
  let m = a.shape.(0) and k = a.shape.(1) in
  if x.shape.(0) <> k then invalid_arg "Tensor.matvec: dimension mismatch";
  let out = Array.make m 0. in
  let row_dot i =
    let row = i * k in
    let acc = ref 0. in
    for j = 0 to k - 1 do
      acc :=
        !acc +. (Array.unsafe_get a.data (row + j) *. Array.unsafe_get x.data j)
    done;
    out.(i) <- !acc
  in
  if m * k < matvec_par_macs then
    for i = 0 to m - 1 do
      row_dot i
    done
  else Pool.parallel_for 0 m row_dot;
  make [| m |] out

(* ------------------------------------------------------------------ *)
(* Convolution kernels.                                                *)
(*                                                                     *)
(* One pack-free direct kernel per op: forward, backward-input,         *)
(* backward-weight and transposed.  Each copies its sample once into a  *)
(* zero-padded Workspace buffer and runs a register tile over it; a     *)
(* table of per-row offsets into that buffer stands in for an im2col    *)
(* matrix, so nothing is packed.  Bit-exactness contract: every output  *)
(* element is one left-to-right chain that starts at +0. and adds its   *)
(* terms in the reference order                                         *)
(*   forward          (c, ky, kx) ascending                             *)
(*   backward-input   (o, ky, kx) ascending                             *)
(*   backward-weight  (oy, ox) ascending                                *)
(*   transposed       c, then iy, then ix ascending                     *)
(* with the bias, if any, added last.  Padding, stride holes and zero   *)
(* weights contribute w.0 or 0.x = +/-0.; a chain that starts at +0.    *)
(* never becomes -0., and adding +/-0. leaves any other finite value    *)
(* as it is, so the kernels give the bits of the naive loop nests that  *)
(* skip those terms.  The tiles never depend on the job count: a lone   *)
(* sample above [conv_par_macs] spreads its channel pairs over the      *)
(* pool, and which domain runs a pair changes no bit.                   *)
(* ------------------------------------------------------------------ *)

let check_rank3 name t =
  if rank t <> 3 then invalid_arg (name ^ ": expected a rank-3 tensor")

(* Output size of a convolution, or of a transposed one. *)
let conv_out ~stride ~pad ~k n = ((n + (2 * pad) - k) / stride) + 1
let conv_transpose_out ~stride ~pad ~k n = ((n - 1) * stride) - (2 * pad) + k

(* Bias goes in after the full contraction, once per output channel. *)
let add_channel_bias ~off out ~n bias =
  match bias with
  | None -> ()
  | Some b ->
      for o = 0 to Array.length b.data - 1 do
        let bv = Array.unsafe_get b.data o in
        let base = off + (o * n) in
        for i = 0 to n - 1 do
          Array.unsafe_set out (base + i) (Array.unsafe_get out (base + i) +. bv)
        done
      done

(* Zero-padded copy of a [c x h x w] sample at [soff]: element (y, x)
   of each plane lands at row [top + y*ystep] and column [left +
   x*xstep] of an [hp x wp] plane of [dst].  A step above 1 leaves zero
   holes between the copied elements, a negative [xstep] mirrors the
   rows, and elements that fall off the plane are dropped.  [slack]
   zeros follow the last plane for the tiles' overhanging reads. *)
let pad_planes ~c ~h ~w ~hp ~wp ~top ~left ~ystep ~xstep ~slack src soff dst =
  Array.fill dst 0 ((c * hp * wp) + slack) 0.;
  (* the last [x] whose column lies inside the plane *)
  let x_hi =
    min (w - 1) (if xstep > 0 then (wp - 1 - left) / xstep else left / -xstep)
  in
  for ch = 0 to c - 1 do
    for y = 0 to h - 1 do
      let ty = top + (y * ystep) in
      if ty < hp then begin
        let s = soff + (((ch * h) + y) * w) in
        let d = (((ch * hp) + ty) * wp) + left in
        if xstep = 1 then Array.blit src s dst d (x_hi + 1)
        else
          for x = 0 to x_hi do
            Array.unsafe_set dst (d + (x * xstep)) (Array.unsafe_get src (s + x))
          done
      end
    done
  done

(* Channels [2p] and [2p+1] for each pair [p]; an odd channel count ends
   with the last channel paired with itself.  A lone sample above
   [conv_par_macs] spreads the pairs over the pool. *)
let for_pairs n macs f =
  let pair p = f (2 * p) (min ((2 * p) + 1) (n - 1)) in
  let pairs = (n + 1) / 2 in
  if macs < conv_par_macs then
    for p = 0 to pairs - 1 do
      pair p
    done
  else Pool.parallel_for ~chunk:1 0 pairs pair

(* The 2 x 4 register tile of the forward, backward-input and
   transposed kernels.  The terms come in [rows] rows of [kw]: row [q]
   reads [src] from [i = base + off.(o0 + q)], its term [kx] at [i + kx
   + j*ps] for pixel j = 0..3, against weight [kw*q + kx] of two rows
   of [wd] starting at [wa] and [wb].  Eight independent chains each
   sum their terms in (q, kx) order from +0.  With kw = 3 at pixel step
   1 a row is a sliding window: six input loads feed 24 MACs.  The
   first [nv] pixels are stored at [oa + j*os] and [ob + j*os] ([wb =
   wa] and [ob = oa] for an unpaired channel); the others read slack
   and are dropped. *)
let tile_2x4 ~rows ~kw ~ps ~os off o0 wd wa wb src base out oa ob nv =
  let a0 = ref 0. in
  let a1 = ref 0. in
  let a2 = ref 0. in
  let a3 = ref 0. in
  let b0 = ref 0. in
  let b1 = ref 0. in
  let b2 = ref 0. in
  let b3 = ref 0. in
  let ps2 = 2 * ps and ps3 = 3 * ps in
  for q = 0 to rows - 1 do
    let i = base + Array.unsafe_get off (o0 + q) in
    let wqa = wa + (q * kw) and wqb = wb + (q * kw) in
    if kw = 3 && ps = 1 then begin
      let x0 = Array.unsafe_get src i in
      let x1 = Array.unsafe_get src (i + 1) in
      let x2 = Array.unsafe_get src (i + 2) in
      let x3 = Array.unsafe_get src (i + 3) in
      let va = Array.unsafe_get wd wqa and vb = Array.unsafe_get wd wqb in
      a0 := !a0 +. (va *. x0);
      a1 := !a1 +. (va *. x1);
      a2 := !a2 +. (va *. x2);
      a3 := !a3 +. (va *. x3);
      b0 := !b0 +. (vb *. x0);
      b1 := !b1 +. (vb *. x1);
      b2 := !b2 +. (vb *. x2);
      b3 := !b3 +. (vb *. x3);
      let x4 = Array.unsafe_get src (i + 4) in
      let va = Array.unsafe_get wd (wqa + 1) and vb = Array.unsafe_get wd (wqb + 1) in
      a0 := !a0 +. (va *. x1);
      a1 := !a1 +. (va *. x2);
      a2 := !a2 +. (va *. x3);
      a3 := !a3 +. (va *. x4);
      b0 := !b0 +. (vb *. x1);
      b1 := !b1 +. (vb *. x2);
      b2 := !b2 +. (vb *. x3);
      b3 := !b3 +. (vb *. x4);
      let x5 = Array.unsafe_get src (i + 5) in
      let va = Array.unsafe_get wd (wqa + 2) and vb = Array.unsafe_get wd (wqb + 2) in
      a0 := !a0 +. (va *. x2);
      a1 := !a1 +. (va *. x3);
      a2 := !a2 +. (va *. x4);
      a3 := !a3 +. (va *. x5);
      b0 := !b0 +. (vb *. x2);
      b1 := !b1 +. (vb *. x3);
      b2 := !b2 +. (vb *. x4);
      b3 := !b3 +. (vb *. x5)
    end
    else
      for kx = 0 to kw - 1 do
        let e = i + kx in
        let x0 = Array.unsafe_get src e in
        let x1 = Array.unsafe_get src (e + ps) in
        let x2 = Array.unsafe_get src (e + ps2) in
        let x3 = Array.unsafe_get src (e + ps3) in
        let va = Array.unsafe_get wd (wqa + kx) and vb = Array.unsafe_get wd (wqb + kx) in
        a0 := !a0 +. (va *. x0);
        a1 := !a1 +. (va *. x1);
        a2 := !a2 +. (va *. x2);
        a3 := !a3 +. (va *. x3);
        b0 := !b0 +. (vb *. x0);
        b1 := !b1 +. (vb *. x1);
        b2 := !b2 +. (vb *. x2);
        b3 := !b3 +. (vb *. x3)
      done
  done;
  Array.unsafe_set out oa !a0;
  Array.unsafe_set out ob !b0;
  if nv > 1 then begin
    Array.unsafe_set out (oa + os) !a1;
    Array.unsafe_set out (ob + os) !b1
  end;
  if nv > 2 then begin
    Array.unsafe_set out (oa + (2 * os)) !a2;
    Array.unsafe_set out (ob + (2 * os)) !b2
  end;
  if nv > 3 then begin
    Array.unsafe_set out (oa + (3 * os)) !a3;
    Array.unsafe_set out (ob + (3 * os)) !b3
  end

(* Every kernel below reads its sample at an offset into a source array
   ([xoff], [goff]) and writes its result at an offset into a
   zero-initialized destination ([ooff], [ioff], [woff]), so the batched
   kernels run one sample of a batch in place, without copying it out. *)

(* Forward: out[o, oy, ox] sums w[o, c, ky, kx] . xp[c, oy*s + ky,
   ox*s + kx] over (c, ky, kx) ascending, where xp is the sample padded
   by [pad]; a tile row is one (c, ky), and the weight rows are [wd]'s
   natural layout.  A tile is two output channels by four pixels of one
   output row. *)
let conv2d_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw xd xoff wd bias out ooff =
  let oh = conv_out ~stride ~pad ~k:kh h and ow = conv_out ~stride ~pad ~k:kw w in
  let hp = h + (2 * pad) and wp = w + (2 * pad) in
  let kdim = ci * kh * kw and ohw = oh * ow in
  let slack = 3 * stride in
  Workspace.with_floats ((ci * hp * wp) + slack) (fun xp ->
      pad_planes ~c:ci ~h ~w ~hp ~wp ~top:pad ~left:pad ~ystep:1 ~xstep:1 ~slack
        xd xoff xp;
      Workspace.with_ints (ci * kh) (fun off ->
          for q = 0 to (ci * kh) - 1 do
            off.(q) <- (q / kh * hp * wp) + (q mod kh * wp)
          done;
          for_pairs co (co * kdim * ohw) (fun o0 o1 ->
              for oy = 0 to oh - 1 do
                for t = 0 to ((ow + 3) / 4) - 1 do
                  let ox = 4 * t in
                  let o = ooff + (oy * ow) + ox in
                  tile_2x4 ~rows:(ci * kh) ~kw ~ps:stride ~os:1 off 0 wd
                    (o0 * kdim) (o1 * kdim) xp
                    (((oy * wp) + ox) * stride)
                    out
                    (o + (o0 * ohw))
                    (o + (o1 * ohw))
                    (min 4 (ow - ox))
                done
              done)));
  add_channel_bias ~off:ooff out ~n:ohw bias

(* Backward-input: gin[c, iy, ix] sums w[o, c, ky, kx] . G[o, iy + pad -
   ky, ix + pad - kx] over (o, ky, kx) ascending, where G is gout with
   (s-1) zero rows and columns stuffed between its entries and a zero
   border.  The kernel read runs flipped, so G's rows are stored
   mirrored: then term kx of mirrored input column m = w-1-ix sits at
   m + kx, and a tile row is one (o, ky), read forwards.  The weights
   are regrouped into rows per input channel; a tile is two input
   channels by four pixels of one input row, stored right to left. *)
let conv2d_backward_input_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw ~oh ~ow gd
    goff wd gin ioff =
  let kk = kh * kw in
  let kdim = co * kk and hw = h * w in
  (* G's row t sits at buffer row [my + t], for t in [pad - kh + 1, h + pad) *)
  let my = max 0 (kh - 1 - pad) and mx = max 0 (kw - 1 - pad) in
  let hb = my + h + pad and wb = mx + w + pad in
  Workspace.with_floats ((co * hb * wb) + 3) (fun gp ->
      pad_planes ~c:co ~h:oh ~w:ow ~hp:hb ~wp:wb ~top:my ~left:(wb - 1 - mx)
        ~ystep:stride ~xstep:(-stride) ~slack:3 gd goff gp;
      Workspace.with_floats (ci * kdim) (fun wt ->
          Workspace.with_ints (co * kh) (fun off ->
              for q = 0 to (co * kh) - 1 do
                off.(q) <- (q / kh * hb * wb) - (q mod kh * wb)
              done;
              for r = 0 to kdim - 1 do
                for c = 0 to ci - 1 do
                  wt.((c * kdim) + r) <- wd.((((r / kk * ci) + c) * kk) + (r mod kk))
                done
              done;
              for_pairs ci (kdim * ci * oh * ow) (fun c0 c1 ->
                  for iy = 0 to h - 1 do
                    for t = 0 to ((w + 3) / 4) - 1 do
                      let m = 4 * t in
                      let i = ioff + (iy * w) + (w - 1 - m) in
                      tile_2x4 ~rows:(co * kh) ~kw ~ps:1 ~os:(-1) off 0 wt
                        (c0 * kdim) (c1 * kdim) gp
                        (((iy + pad + my) * wb) + m)
                        gin
                        (i + (c0 * hw))
                        (i + (c1 * hw))
                        (min 4 (w - m))
                    done
                  done))))

(* Backward-weight: gw[o, c, ky, kx] sums gout[o, oy, ox] . xp[c, oy*s +
   ky, ox*s + kx] over (oy, ox) ascending, one chain per weight, for two
   output channels at a time.  At kw = 3 and stride 1 a tile is the
   three kx of one kernel row (c, ky), sliding along the input row: each
   pixel loads one new input and two gradients for six MACs.  Otherwise
   a tile is four consecutive weights r = (c, ky, kx) at buffer offsets
   [d0] .. [d3]; past the last weight it repeats that one and drops the
   result. *)
let wtile_2x3 ~wp ~oh ~ow gd ga gb xp d gw wa wb =
  let a0 = ref 0. in
  let a1 = ref 0. in
  let a2 = ref 0. in
  let b0 = ref 0. in
  let b1 = ref 0. in
  let b2 = ref 0. in
  for oy = 0 to oh - 1 do
    let g = oy * ow and xr = d + (oy * wp) in
    let x1 = ref (Array.unsafe_get xp xr) in
    let x2 = ref (Array.unsafe_get xp (xr + 1)) in
    for ox = 0 to ow - 1 do
      let u = Array.unsafe_get gd (ga + g + ox) in
      let v = Array.unsafe_get gd (gb + g + ox) in
      let x0 = !x1 and x1' = !x2 in
      let x2' = Array.unsafe_get xp (xr + ox + 2) in
      a0 := !a0 +. (u *. x0);
      a1 := !a1 +. (u *. x1');
      a2 := !a2 +. (u *. x2');
      b0 := !b0 +. (v *. x0);
      b1 := !b1 +. (v *. x1');
      b2 := !b2 +. (v *. x2');
      x1 := x1';
      x2 := x2'
    done
  done;
  Array.unsafe_set gw wa !a0;
  Array.unsafe_set gw (wa + 1) !a1;
  Array.unsafe_set gw (wa + 2) !a2;
  Array.unsafe_set gw wb !b0;
  Array.unsafe_set gw (wb + 1) !b1;
  Array.unsafe_set gw (wb + 2) !b2

let wtile_2x4 ~stride ~wp ~oh ~ow gd ga gb xp d0 d1 d2 d3 gw wa wb nv =
  let a0 = ref 0. in
  let a1 = ref 0. in
  let a2 = ref 0. in
  let a3 = ref 0. in
  let b0 = ref 0. in
  let b1 = ref 0. in
  let b2 = ref 0. in
  let b3 = ref 0. in
  for oy = 0 to oh - 1 do
    let g = oy * ow in
    let p = ref (oy * stride * wp) in
    for ox = 0 to ow - 1 do
      let u = Array.unsafe_get gd (ga + g + ox) in
      let v = Array.unsafe_get gd (gb + g + ox) in
      let x0 = Array.unsafe_get xp (!p + d0) in
      let x1 = Array.unsafe_get xp (!p + d1) in
      let x2 = Array.unsafe_get xp (!p + d2) in
      let x3 = Array.unsafe_get xp (!p + d3) in
      a0 := !a0 +. (u *. x0);
      a1 := !a1 +. (u *. x1);
      a2 := !a2 +. (u *. x2);
      a3 := !a3 +. (u *. x3);
      b0 := !b0 +. (v *. x0);
      b1 := !b1 +. (v *. x1);
      b2 := !b2 +. (v *. x2);
      b3 := !b3 +. (v *. x3);
      p := !p + stride
    done
  done;
  Array.unsafe_set gw wa !a0;
  Array.unsafe_set gw wb !b0;
  if nv > 1 then begin
    Array.unsafe_set gw (wa + 1) !a1;
    Array.unsafe_set gw (wb + 1) !b1
  end;
  if nv > 2 then begin
    Array.unsafe_set gw (wa + 2) !a2;
    Array.unsafe_set gw (wb + 2) !b2
  end;
  if nv > 3 then begin
    Array.unsafe_set gw (wa + 3) !a3;
    Array.unsafe_set gw (wb + 3) !b3
  end

let conv2d_backward_weight_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw ~oh ~ow gd
    goff xd xoff gw woff =
  let hp = h + (2 * pad) and wp = w + (2 * pad) in
  let kdim = ci * kh * kw and ohw = oh * ow in
  Workspace.with_floats (ci * hp * wp) (fun xp ->
      pad_planes ~c:ci ~h ~w ~hp ~wp ~top:pad ~left:pad ~ystep:1 ~xstep:1
        ~slack:0 xd xoff xp;
      (* the buffer offset of weight r = (c, ky, kx) *)
      let d r =
        let r = min r (kdim - 1) in
        (((r / (kh * kw) * hp) + (r / kw mod kh)) * wp) + (r mod kw)
      in
      for_pairs co (co * kdim * ohw) (fun o0 o1 ->
          let ga = goff + (o0 * ohw) and gb = goff + (o1 * ohw) in
          let wa = woff + (o0 * kdim) and wb = woff + (o1 * kdim) in
          if kw = 3 && stride = 1 then
            for r = 0 to (kdim / 3) - 1 do
              wtile_2x3 ~wp ~oh ~ow gd ga gb xp (d (3 * r)) gw
                (wa + (3 * r))
                (wb + (3 * r))
            done
          else
            for t = 0 to ((kdim + 3) / 4) - 1 do
              let r = 4 * t in
              wtile_2x4 ~stride ~wp ~oh ~ow gd ga gb xp (d r) (d (r + 1))
                (d (r + 2))
                (d (r + 3))
                gw (wa + r) (wb + r)
                (min 4 (kdim - r))
            done))

(* Transposed, in gather form: output pixel (oy, ox) has phase (ry, rx)
   = ((oy + pad) mod s, (ox + pad) mod s) and base input pixel (qy, qx) =
   ((oy + pad) / s, (ox + pad) / s).  Its terms are x[c, qy - jy, qx -
   jx] . w[c, o, ry + jy*s, rx + jx*s] for ry + jy*s < kh and rx + jx*s
   < kw, taken c ascending, then jy descending (iy ascending), then jx
   descending (ix ascending).  Each phase gets its own weight rows and
   its own tile rows, one per (c, jy); x is padded so that input pixels
   off the sample read zero.  A tile is two output channels by four
   same-phase pixels of one output row (consecutive qx). *)
let conv2d_transpose_into ~stride:s ~pad ~ci ~h ~w ~co ~kh ~kw xd xoff wd bias
    out ooff =
  let oh = conv_transpose_out ~stride:s ~pad ~k:kh h in
  let ow = conv_transpose_out ~stride:s ~pad ~k:kw w in
  let ohw = oh * ow in
  (* taps of phase r along an axis of kernel size k *)
  let taps k r = (k - r + s - 1) / s in
  let ty = taps kh 0 - 1 and tx = taps kw 0 - 1 in
  let hx = ty + max h (((oh - 1 + pad) / s) + 1) in
  let wx = tx + max w (((ow - 1 + pad) / s) + 1) in
  (* phase (ry, rx) owns weights [co * wbase.(ph), + co * ci * ny * nx)
     and tile rows [qbase.(ph), + ci * ny) *)
  let wbase = Array.make ((s * s) + 1) 0 and qbase = Array.make ((s * s) + 1) 0 in
  for ph = 0 to (s * s) - 1 do
    let ny = taps kh (ph / s) and nx = taps kw (ph mod s) in
    wbase.(ph + 1) <- wbase.(ph) + (ci * ny * nx);
    qbase.(ph + 1) <- qbase.(ph) + (ci * ny)
  done;
  Workspace.with_floats ((ci * hx * wx) + 3) (fun xp ->
      pad_planes ~c:ci ~h ~w ~hp:hx ~wp:wx ~top:ty ~left:tx ~ystep:1 ~xstep:1
        ~slack:3 xd xoff xp;
      Workspace.with_floats (co * wbase.(s * s)) (fun wph ->
          Workspace.with_ints qbase.(s * s) (fun off ->
              for ph = 0 to (s * s) - 1 do
                let ry = ph / s and rx = ph mod s in
                let ny = taps kh ry and nx = taps kw rx in
                let k = ci * ny * nx in
                for q = 0 to (ci * ny) - 1 do
                  let c = q / ny and jy = ny - 1 - (q mod ny) in
                  off.(qbase.(ph) + q) <- (c * hx * wx) - (jy * wx) - (nx - 1);
                  for t = 0 to nx - 1 do
                    let jx = nx - 1 - t in
                    let ky = ry + (jy * s) and kx = rx + (jx * s) in
                    for o = 0 to co - 1 do
                      wph.((co * wbase.(ph)) + (o * k) + (q * nx) + t) <-
                        wd.((((((c * co) + o) * kh) + ky) * kw) + kx)
                    done
                  done
                done
              done;
              for_pairs co (ci * co * kh * kw * h * w) (fun o0 o1 ->
                  for oy = 0 to oh - 1 do
                    let ry = (oy + pad) mod s and qy = (oy + pad) / s in
                    for rx = 0 to s - 1 do
                      let ph = (ry * s) + rx in
                      let nx = taps kw rx and k = wbase.(ph + 1) - wbase.(ph) in
                      let wrow o = (co * wbase.(ph)) + (o * k) in
                      (* the first output column of phase rx *)
                      let ox0 = (((rx - pad) mod s) + s) mod s in
                      let cnt = if ox0 < ow then ((ow - 1 - ox0) / s) + 1 else 0 in
                      for t = 0 to ((cnt + 3) / 4) - 1 do
                        let o = ooff + (oy * ow) + ox0 + (4 * t * s) in
                        tile_2x4
                          ~rows:(qbase.(ph + 1) - qbase.(ph))
                          ~kw:nx ~ps:1 ~os:s off qbase.(ph) wph (wrow o0)
                          (wrow o1) xp
                          (((qy + ty) * wx) + ((ox0 + pad) / s) + (4 * t) + tx)
                          out
                          (o + (o0 * ohw))
                          (o + (o1 * ohw))
                          (min 4 (cnt - (4 * t)))
                      done
                    done
                  done))));
  add_channel_bias ~off:ooff out ~n:ohw bias

let maxpool2_chw x =
  check_rank3 "Tensor.maxpool2" x;
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  if h mod 2 <> 0 || w mod 2 <> 0 then
    invalid_arg "Tensor.maxpool2: spatial dimensions must be even";
  let oh = h / 2 and ow = w / 2 in
  let out = Array.make (c * oh * ow) 0. in
  let arg = Array.make (c * oh * ow) 0 in
  for ch = 0 to c - 1 do
    let xbase = ch * h * w in
    let obase = ch * oh * ow in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        (* the window in order (0,0) (0,1) (1,0) (1,1); the first
           strict maximum wins ties *)
        let i0 = xbase + (2 * oy * w) + (2 * ox) in
        let best = ref i0 in
        let bestv = ref (Array.unsafe_get x.data i0) in
        for k = 1 to 3 do
          let i = i0 + (k land 1) + (k lsr 1 * w) in
          let v = Array.unsafe_get x.data i in
          if v > !bestv then begin
            best := i;
            bestv := v
          end
        done;
        out.(obase + (oy * ow) + ox) <- !bestv;
        arg.(obase + (oy * ow) + ox) <- !best
      done
    done
  done;
  (make [| c; oh; ow |] out, arg)

let maxpool2 x =
  if rank x = 4 then begin
    (* pooling is per channel, so the batch and channel axes fold; the
       argmax stays a flat index into the rank-4 input *)
    let n = x.shape.(0) and c = x.shape.(1) in
    let h = x.shape.(2) and w = x.shape.(3) in
    let y, arg = maxpool2_chw (reshape x [| n * c; h; w |]) in
    (reshape y [| n; c; h / 2; w / 2 |], arg)
  end
  else maxpool2_chw x

let maxpool2_backward ~input_shape argmax gout =
  let gin = Array.make (numel_of_shape input_shape) 0. in
  Array.iteri (fun i src -> gin.(src) <- gin.(src) +. gout.data.(i)) argmax;
  make input_shape gin

let avgpool2 x =
  check_rank3 "Tensor.avgpool2" x;
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  if h mod 2 <> 0 || w mod 2 <> 0 then
    invalid_arg "Tensor.avgpool2: spatial dimensions must be even";
  let oh = h / 2 and ow = w / 2 in
  let out = Array.make (c * oh * ow) 0. in
  for ch = 0 to c - 1 do
    let xbase = ch * h * w in
    let obase = ch * oh * ow in
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let i0 = xbase + (2 * oy * w) + (2 * ox) in
        out.(obase + (oy * ow) + ox) <-
          0.25
          *. (x.data.(i0) +. x.data.(i0 + 1) +. x.data.(i0 + w)
             +. x.data.(i0 + w + 1))
      done
    done
  done;
  make [| c; oh; ow |] out

let upsample_nearest2 x =
  check_rank3 "Tensor.upsample_nearest2" x;
  let c = x.shape.(0) and h = x.shape.(1) and w = x.shape.(2) in
  let oh = 2 * h and ow = 2 * w in
  let out = Array.make (c * oh * ow) 0. in
  for ch = 0 to c - 1 do
    let xbase = ch * h * w in
    let obase = ch * oh * ow in
    for oy = 0 to oh - 1 do
      let iy = oy / 2 in
      for ox = 0 to ow - 1 do
        out.(obase + (oy * ow) + ox) <- x.data.(xbase + (iy * w) + (ox / 2))
      done
    done
  done;
  make [| c; oh; ow |] out

(* ------------------------------------------------------------------ *)
(* Batched kernels (rank-4 [n; c; h; w]; a rank-3 activation is a      *)
(* batch of one, and every result keeps its input's rank).             *)
(*                                                                     *)
(* These are the kernels of the batch-native autodiff tape and of      *)
(* inference.  Each op splits its batch into contiguous sample chunks, *)
(* one per domain, in a single Pool region ([for_batch]); the kernels  *)
(* inside a chunk then run inline (nested regions do), so one sample's *)
(* conv never pays a region of its own.  Every sample runs the         *)
(* one-sample kernel in place, at its offset into the batch arrays, so *)
(* a result is bit-identical for any chunking; the weight and bias     *)
(* gradients are per-sample chains summed in ascending sample order.   *)
(* ------------------------------------------------------------------ *)

let check_rank4 name t =
  if rank t <> 4 then invalid_arg (name ^ ": expected a rank-4 tensor")

(* [(n, c, h, w)] of a rank-3 (one sample) or rank-4 activation. *)
let batch_geom name t =
  match t.shape with
  | [| c; h; w |] -> (1, c, h, w)
  | [| n; c; h; w |] -> (n, c, h, w)
  | _ -> invalid_arg (name ^ ": expected a rank-3 or rank-4 tensor")

(* The result shape of a batched op: rank 3 in, rank 3 out. *)
let batch_shape x n c h w = if rank x = 3 then [| c; h; w |] else [| n; c; h; w |]

(* Batch-axis dispatch: [f b0 b1] once per contiguous chunk of samples.
   Below [conv_par_macs] of total work, or with one job, the batch is
   one chunk on the calling domain.  Which samples share a chunk never
   changes a result bit. *)
let for_batch n macs f =
  let chunks = if macs < conv_par_macs then 1 else min n (Pool.effective_jobs ()) in
  if chunks <= 1 then f 0 n
  else Pool.for_chunks ~chunk:((n + chunks - 1) / chunks) 0 n f

let stack ts =
  if Array.length ts = 0 then invalid_arg "Tensor.stack: empty batch";
  let s0 = ts.(0).shape in
  Array.iter
    (fun t ->
      if t.shape <> s0 then invalid_arg "Tensor.stack: shape mismatch")
    ts;
  let per = Array.length ts.(0).data in
  let n = Array.length ts in
  let out = Array.make (n * per) 0. in
  Array.iteri (fun i t -> Array.blit t.data 0 out (i * per) per) ts;
  make (Array.append [| n |] s0) out

let unstack t =
  if rank t < 1 then invalid_arg "Tensor.unstack: rank must be >= 1";
  let n = t.shape.(0) in
  let rest = Array.sub t.shape 1 (rank t - 1) in
  let per = numel_of_shape rest in
  Array.init n (fun i -> make rest (Array.sub t.data (i * per) per))

let cat_batch ts =
  let geoms = List.map (batch_geom "Tensor.cat_batch") ts in
  match geoms with
  | [] -> invalid_arg "Tensor.cat_batch: empty list"
  | (_, c, h, w) :: _ ->
      if List.exists (fun (_, c', h', w') -> (c', h', w') <> (c, h, w)) geoms
      then invalid_arg "Tensor.cat_batch: sample shape mismatch";
      let n = List.fold_left (fun acc (nb, _, _, _) -> acc + nb) 0 geoms in
      make [| n; c; h; w |] (Array.concat (List.map (fun t -> t.data) ts))

let slice_batch t lo n =
  check_rank4 "Tensor.slice_batch" t;
  if lo < 0 || n < 0 || lo + n > t.shape.(0) then
    invalid_arg "Tensor.slice_batch: out of range";
  let per = t.shape.(1) * t.shape.(2) * t.shape.(3) in
  make
    [| n; t.shape.(1); t.shape.(2); t.shape.(3) |]
    (Array.sub t.data (lo * per) (n * per))

let swap_halves t =
  if rank t < 1 || t.shape.(0) mod 2 <> 0 then
    invalid_arg "Tensor.swap_halves: leading dimension must be even";
  let half = Array.length t.data / 2 in
  make t.shape
    (Array.append (Array.sub t.data half half) (Array.sub t.data 0 half))

let check_conv_geometry name ~stride ~pad =
  if stride < 1 || pad < 0 then
    invalid_arg (name ^ ": stride must be >= 1 and pad >= 0")

let conv2d_batch ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  check_conv_geometry "Tensor.conv2d_batch" ~stride ~pad;
  let n, ci, h, w = batch_geom "Tensor.conv2d_batch" x in
  if rank weight <> 4 then
    invalid_arg "Tensor.conv2d_batch: weight must be rank 4";
  let co = weight.shape.(0) in
  if weight.shape.(1) <> ci then
    invalid_arg "Tensor.conv2d_batch: channel mismatch between input and weight";
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let oh = conv_out ~stride ~pad ~k:kh h and ow = conv_out ~stride ~pad ~k:kw w in
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.conv2d_batch: empty output";
  let ohw = oh * ow in
  let out = Array.make (n * co * ohw) 0. in
  for_batch n (n * co * ci * kh * kw * ohw) (fun b0 b1 ->
      for b = b0 to b1 - 1 do
        conv2d_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw x.data (b * ci * h * w)
          weight.data bias out (b * co * ohw)
      done);
  make (batch_shape x n co oh ow) out

let conv2d_transpose_batch ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  check_conv_geometry "Tensor.conv2d_transpose_batch" ~stride ~pad;
  let n, ci, h, w = batch_geom "Tensor.conv2d_transpose_batch" x in
  if rank weight <> 4 then
    invalid_arg "Tensor.conv2d_transpose_batch: weight must be rank 4";
  if weight.shape.(0) <> ci then
    invalid_arg "Tensor.conv2d_transpose_batch: channel mismatch";
  let co = weight.shape.(1) in
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let oh = conv_transpose_out ~stride ~pad ~k:kh h in
  let ow = conv_transpose_out ~stride ~pad ~k:kw w in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.conv2d_transpose_batch: empty output";
  let out = Array.make (n * co * oh * ow) 0. in
  for_batch n (n * ci * co * kh * kw * h * w) (fun b0 b1 ->
      for b = b0 to b1 - 1 do
        conv2d_transpose_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw x.data
          (b * ci * h * w) weight.data bias out (b * co * oh * ow)
      done);
  make (batch_shape x n co oh ow) out

let conv2d_backward_input_batch ?(stride = 1) ?(pad = 0) ~input_shape ~weight
    gout =
  check_conv_geometry "Tensor.conv2d_backward_input_batch" ~stride ~pad;
  let n, co, oh, ow = batch_geom "Tensor.conv2d_backward_input_batch" gout in
  let ci, h, w =
    match input_shape with
    | [| ci; h; w |] | [| _; ci; h; w |] -> (ci, h, w)
    | _ -> invalid_arg "Tensor.conv2d_backward_input_batch: bad input shape"
  in
  let kh = weight.shape.(2) and kw = weight.shape.(3) in
  let gin = Array.make (n * ci * h * w) 0. in
  for_batch n (n * co * ci * kh * kw * oh * ow) (fun b0 b1 ->
      for b = b0 to b1 - 1 do
        conv2d_backward_input_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw ~oh ~ow
          gout.data (b * co * oh * ow) weight.data gin (b * ci * h * w)
      done);
  make input_shape gin

let conv2d_backward_weight_batch ?(stride = 1) ?(pad = 0) ~input ~weight_shape
    gout =
  check_conv_geometry "Tensor.conv2d_backward_weight_batch" ~stride ~pad;
  let n, ci, h, w = batch_geom "Tensor.conv2d_backward_weight_batch" input in
  let _, co, oh, ow = batch_geom "Tensor.conv2d_backward_weight_batch" gout in
  if n < 1 then invalid_arg "Tensor.conv2d_backward_weight_batch: empty batch";
  let kh = weight_shape.(2) and kw = weight_shape.(3) in
  let wsize = co * ci * kh * kw in
  (* one weight gradient per sample, then their sum in sample order *)
  let parts = Array.make (n * wsize) 0. in
  for_batch n (n * wsize * oh * ow) (fun b0 b1 ->
      for b = b0 to b1 - 1 do
        conv2d_backward_weight_into ~stride ~pad ~ci ~h ~w ~co ~kh ~kw ~oh ~ow
          gout.data (b * co * oh * ow) input.data (b * ci * h * w) parts
          (b * wsize)
      done);
  let gw = Array.sub parts 0 wsize in
  for b = 1 to n - 1 do
    for i = 0 to wsize - 1 do
      Array.unsafe_set gw i
        (Array.unsafe_get gw i +. Array.unsafe_get parts ((b * wsize) + i))
    done
  done;
  make weight_shape gw

let channel_sums g =
  let n, c, h, w = batch_geom "Tensor.channel_sums" g in
  let hw = h * w in
  let part = Array.make (n * c) 0. in
  for_batch n (n * c * hw) (fun b0 b1 ->
      for bo = b0 * c to (b1 * c) - 1 do
        let acc = ref 0. in
        for i = 0 to hw - 1 do
          acc := !acc +. Array.unsafe_get g.data ((bo * hw) + i)
        done;
        part.(bo) <- !acc
      done);
  make [| c |]
    (Array.init c (fun o ->
         let s = ref part.(o) in
         for b = 1 to n - 1 do
           s := !s +. part.((b * c) + o)
         done;
         !s))

let maxpool2_batch x =
  check_rank4 "Tensor.maxpool2_batch" x;
  fst (maxpool2 x)

let concat_channels_batch ts =
  match ts with
  | [] -> invalid_arg "Tensor.concat_channels_batch: empty list"
  | first :: _ ->
      List.iter (check_rank4 "Tensor.concat_channels_batch") ts;
      let n = first.shape.(0) in
      let h = first.shape.(2) and w = first.shape.(3) in
      List.iter
        (fun t ->
          if t.shape.(0) <> n || t.shape.(2) <> h || t.shape.(3) <> w then
            invalid_arg "Tensor.concat_channels_batch: batch/spatial mismatch")
        ts;
      let ctot = List.fold_left (fun acc t -> acc + t.shape.(1)) 0 ts in
      let hw = h * w in
      let out = Array.make (n * ctot * hw) 0. in
      for b = 0 to n - 1 do
        let pos = ref (b * ctot * hw) in
        List.iter
          (fun t ->
            let span = t.shape.(1) * hw in
            Array.blit t.data (b * span) out !pos span;
            pos := !pos + span)
          ts
      done;
      make [| n; ctot; h; w |] out

(* ------------------------------------------------------------------ *)
(* Quantized int8 inference kernels.                                   *)
(*                                                                     *)
(* Weights are quantized per output channel to symmetric int8           *)
(* (scale_o = max|W[o]|/127, zero point 0) and stored biased by +128    *)
(* as unsigned bytes.  Activations are quantized per *sample* at call   *)
(* time with the same symmetric scheme — per sample, not per batch, so  *)
(* a sample's int8 result is bit-identical whatever batch the serve     *)
(* micro-batcher happened to coalesce it into (the same contract the    *)
(* float path gives the result cache).                                  *)
(*                                                                     *)
(* The microkernel packs three consecutive *k*-elements per 63-bit      *)
(* word (lanes at bits 0/21/42): weight triples forward                 *)
(* (a0 + a1<<21 + a2<<42) and activation triples reversed               *)
(* (b2 + b1<<21 + b0<<42).  One integer multiply then lands             *)
(* a0b0 + a1b1 + a2b2 — a three-term dot product — in the bit-42 lane:  *)
(* the cross terms fall at lanes 0 and 21 below it, or at bits 63/84    *)
(* where they wrap off the top of OCaml's 63-bit (mod-2^63) integers.   *)
(* Up to 10 products accumulate before any lane can overflow            *)
(* (10 . 3 . 255^2 < 2^21), so one shift recovers 30 exact MACs.  All   *)
(* accumulation is exact integer arithmetic, so results are             *)
(* bit-identical at any DCO3D_JOBS split by construction; the float     *)
(* work (requantize scale, bias, activation) happens once per output    *)
(* element, in a fixed per-element order.                               *)
(*                                                                     *)
(* Bias correction: with ua = qa + 128 and ub = qb + 128,               *)
(*   sum_p qa.qb = sum_p ua.ub - 128.rowsum_a - 128.colsum_b + k.2^14   *)
(* rowsums are precomputed at weight-quantization time, colsums fall    *)
(* out of packing.                                                      *)
(* ------------------------------------------------------------------ *)

type qweight = {
  qw_shape : int array;  (* [co; ci; kh; kw] *)
  qw_data : Bytes.t;  (* co x (ci*kh*kw), biased: byte = q + 128 *)
  qw_scales : float array;  (* per output channel *)
  qw_rowsum : int array;  (* per output channel, sum of biased bytes *)
}

let qweight_shape qw = Array.copy qw.qw_shape
let qweight_scales qw = Array.copy qw.qw_scales
let qweight_bytes qw = Bytes.copy qw.qw_data

(* Round-half-away-from-zero without the [Float.round] C call: truncate
   after nudging by +-0.5.  The exact expression is part of the int8
   path's determinism contract (the parity tests replicate it). *)
let quantize_clamped v inv =
  let x = v *. inv in
  let q = int_of_float (if x >= 0. then x +. 0.5 else x -. 0.5) in
  if q > 127 then 127 else if q < -127 then -127 else q

(* Affine variant for activations: [clamp (round (v * inv) + z)].
   Same rounding expression as [quantize_clamped], shifted by the
   per-sample zero-point before the clamp. *)
let quantize_affine v inv z =
  let x = v *. inv in
  let q = z + int_of_float (if x >= 0. then x +. 0.5 else x -. 0.5) in
  if q > 127 then 127 else if q < -127 then -127 else q

let quantize_weight w =
  if rank w <> 4 then invalid_arg "Tensor.quantize_weight: weight must be rank 4";
  let co = w.shape.(0) in
  let kdim = w.shape.(1) * w.shape.(2) * w.shape.(3) in
  let data = Bytes.create (co * kdim) in
  let scales = Array.make co 1. in
  let rowsum = Array.make co 0 in
  let wd = w.data in
  for o = 0 to co - 1 do
    let base = o * kdim in
    let m = ref 0. in
    for p = 0 to kdim - 1 do
      let v = Float.abs (Array.unsafe_get wd (base + p)) in
      if v > !m then m := v
    done;
    let s = if !m > 0. then !m /. 127. else 1. in
    scales.(o) <- s;
    let inv = 1. /. s in
    let rs = ref 0 in
    for p = 0 to kdim - 1 do
      let q = quantize_clamped (Array.unsafe_get wd (base + p)) inv in
      Bytes.unsafe_set data (base + p) (Char.unsafe_chr (q + 128));
      rs := !rs + (q + 128)
    done;
    rowsum.(o) <- !rs
  done;
  { qw_shape = Array.copy w.shape; qw_data = data; qw_scales = scales;
    qw_rowsum = rowsum }

let dequantize_weight qw =
  let n = Bytes.length qw.qw_data in
  let co = qw.qw_shape.(0) in
  let kdim = n / max 1 co in
  let out = Array.make n 0. in
  for o = 0 to co - 1 do
    let s = qw.qw_scales.(o) in
    let base = o * kdim in
    for p = 0 to kdim - 1 do
      let q = Char.code (Bytes.unsafe_get qw.qw_data (base + p)) - 128 in
      Array.unsafe_set out (base + p) (float_of_int q *. s)
    done
  done;
  make (Array.copy qw.qw_shape) out

let qweight_of_parts ~shape ~data ~scales =
  if Array.length shape <> 4 then
    invalid_arg "Tensor.qweight_of_parts: shape must be rank 4";
  let co = shape.(0) in
  let kdim = shape.(1) * shape.(2) * shape.(3) in
  if co < 1 || kdim < 1 then
    invalid_arg "Tensor.qweight_of_parts: empty weight";
  if Bytes.length data <> co * kdim then
    invalid_arg "Tensor.qweight_of_parts: data length disagrees with shape";
  if Array.length scales <> co then
    invalid_arg "Tensor.qweight_of_parts: one scale per output channel required";
  Array.iter
    (fun s ->
      if not (Float.is_finite s) || s <= 0. then
        invalid_arg "Tensor.qweight_of_parts: scales must be finite and positive")
    scales;
  Bytes.iter
    (fun c ->
      if Char.code c < 1 then
        invalid_arg "Tensor.qweight_of_parts: byte outside the symmetric range")
    data;
  let rowsum = Array.make co 0 in
  for o = 0 to co - 1 do
    let base = o * kdim in
    let rs = ref 0 in
    for p = 0 to kdim - 1 do
      rs := !rs + Char.code (Bytes.unsafe_get data (base + p))
    done;
    rowsum.(o) <- !rs
  done;
  { qw_shape = Array.copy shape; qw_data = Bytes.copy data;
    qw_scales = Array.copy scales; qw_rowsum = rowsum }

(* ---- k-SWAR microkernel workers ----------------------------------- *)
(* Top-level tail-recursive loops keep every accumulator in a           *)
(* register: OCaml's amd64 convention passes ten int arguments in       *)
(* registers, where closure-captured refs would round-trip through      *)
(* stack slots on every iteration.  Each call runs [rem] <= 10 packed   *)
(* k-triples of one/two weight rows against one/two activation          *)
(* columns; the caller recovers each 3-term-dot lane with one shift.    *)

let rec qk2x2 wpb xcol iw ix ix2 rem s00 s01 s10 s11 =
  if rem <= 0 then (s00, s01, s10, s11)
  else
    let w0 = Array.unsafe_get wpb iw in
    let w1 = Array.unsafe_get wpb (iw + 1) in
    let x0 = Array.unsafe_get xcol ix in
    let x1 = Array.unsafe_get xcol ix2 in
    qk2x2 wpb xcol (iw + 2) (ix + 1) (ix2 + 1) (rem - 1) (s00 + (w0 * x0))
      (s01 + (w0 * x1)) (s10 + (w1 * x0)) (s11 + (w1 * x1))

let rec qk2x1 wpb xcol iw ix rem s0 s1 =
  if rem <= 0 then (s0, s1)
  else
    let w0 = Array.unsafe_get wpb iw in
    let w1 = Array.unsafe_get wpb (iw + 1) in
    let x0 = Array.unsafe_get xcol ix in
    qk2x1 wpb xcol (iw + 2) (ix + 1) (rem - 1) (s0 + (w0 * x0))
      (s1 + (w1 * x0))

(* Two-words-per-step unrolling of [qk2x2]; [rem] counts double
   steps.  Callers only use it for full 10-word spill blocks, so the
   odd tail never reaches it. *)
let rec qk2x2u wpb xcol iw ix ix2 rem s00 s01 s10 s11 =
  if rem <= 0 then (s00, s01, s10, s11)
  else
    let w0 = Array.unsafe_get wpb iw in
    let w1 = Array.unsafe_get wpb (iw + 1) in
    let w2 = Array.unsafe_get wpb (iw + 2) in
    let w3 = Array.unsafe_get wpb (iw + 3) in
    let x0 = Array.unsafe_get xcol ix in
    let x1 = Array.unsafe_get xcol ix2 in
    let x2 = Array.unsafe_get xcol (ix + 1) in
    let x3 = Array.unsafe_get xcol (ix2 + 1) in
    qk2x2u wpb xcol (iw + 4) (ix + 2) (ix2 + 2) (rem - 1)
      (s00 + (w0 * x0) + (w2 * x2))
      (s01 + (w0 * x1) + (w2 * x3))
      (s10 + (w1 * x0) + (w3 * x2))
      (s11 + (w1 * x1) + (w3 * x3))

(* Full-k dots for a 2x2 (rows x columns) tile, spilling the bit-42
   lane every 10 words: 10 . 3 . 255^2 < 2^21 keeps the dot lane from
   overflowing bit 62 and the cross-term lanes from carrying into it.
   Full blocks run the unrolled worker (5 double steps); the final
   partial block falls back to the single-step worker. *)
let qtile_2x2 wpb xcol wbase x0 x1 glen =
  let d00 = ref 0 and d01 = ref 0 and d10 = ref 0 and d11 = ref 0 in
  let g = ref 0 in
  while glen - !g >= 10 do
    let s00, s01, s10, s11 =
      qk2x2u wpb xcol (wbase + (2 * !g)) (x0 + !g) (x1 + !g) 5 0 0 0 0
    in
    d00 := !d00 + (s00 lsr 42);
    d01 := !d01 + (s01 lsr 42);
    d10 := !d10 + (s10 lsr 42);
    d11 := !d11 + (s11 lsr 42);
    g := !g + 10
  done;
  if !g < glen then begin
    let s00, s01, s10, s11 =
      qk2x2 wpb xcol (wbase + (2 * !g)) (x0 + !g) (x1 + !g) (glen - !g) 0 0 0 0
    in
    d00 := !d00 + (s00 lsr 42);
    d01 := !d01 + (s01 lsr 42);
    d10 := !d10 + (s10 lsr 42);
    d11 := !d11 + (s11 lsr 42)
  end;
  (!d00, !d01, !d10, !d11)

let qtile_2x1 wpb xcol wbase x0 glen =
  let d0 = ref 0 and d1 = ref 0 in
  let g = ref 0 in
  while !g < glen do
    let gb = min 10 (glen - !g) in
    let s0, s1 = qk2x1 wpb xcol (wbase + (2 * !g)) (x0 + !g) gb 0 0 in
    d0 := !d0 + (s0 lsr 42);
    d1 := !d1 + (s1 lsr 42);
    g := !g + gb
  done;
  (!d0, !d1)

(* Pack A rows k-wise forward, rows interleaved in pairs so the 2x2
   tile loads both rows' words from adjacent slots.  K-tail elements
   and the dummy row of an odd pairing pack as 128 (the biased zero);
   the bias correction accounts for the pad exactly. *)
let qpack_rows ~co ~kdim getb =
  let glen = (kdim + 2) / 3 in
  let pairs = (co + 1) / 2 in
  let wpb = Array.make (pairs * glen * 2) 0 in
  let byte o p = if o < co && p < kdim then getb o p else 128 in
  for pr = 0 to pairs - 1 do
    let o0 = 2 * pr in
    for g = 0 to glen - 1 do
      let p = 3 * g in
      let idx = ((pr * glen) + g) * 2 in
      wpb.(idx) <-
        byte o0 p lor (byte o0 (p + 1) lsl 21) lor (byte o0 (p + 2) lsl 42);
      wpb.(idx + 1) <-
        byte (o0 + 1) p
        lor (byte (o0 + 1) (p + 1) lsl 21)
        lor (byte (o0 + 1) (p + 2) lsl 42)
    done
  done;
  wpb

(* Per-row half of the bias correction over the padded length [k3]:
   qdot = D - 128.rowsum' - 128.colsum' + k3.2^14, where both sums
   count the pad bytes (128 on both sides). *)
let qcrow ~co ~kdim ~k3 rowsum =
  Array.init co (fun o ->
      (k3 * 16384) - (128 * (rowsum.(o) + ((k3 - kdim) * 128))))

(* Pack one activation column into [xcol] at [base]: [glen] reversed
   k-triples read through the offset table (index = colbase + off[p]),
   the k-tail packing 128.  Returns the column's biased-byte sum
   (pad included) read off the packed words themselves — whole words
   accumulate all three lanes at once, split once per 4096 words
   (lanes hold bare bytes: 255 . 4096 < 2^21). *)
let qpack_col xq off ~kdim ~glen xcol base cb =
  let gf = kdim / 3 in
  let sum = ref 0 in
  let g0 = ref 0 in
  while !g0 < gf do
    let gend = min gf (!g0 + 4096) in
    let acc = ref 0 in
    for g = !g0 to gend - 1 do
      let p = 3 * g in
      let b0 = Char.code (Bytes.unsafe_get xq (cb + Array.unsafe_get off p)) in
      let b1 =
        Char.code (Bytes.unsafe_get xq (cb + Array.unsafe_get off (p + 1)))
      in
      let b2 =
        Char.code (Bytes.unsafe_get xq (cb + Array.unsafe_get off (p + 2)))
      in
      let wd = b2 lor (b1 lsl 21) lor (b0 lsl 42) in
      Array.unsafe_set xcol (base + g) wd;
      acc := !acc + wd
    done;
    sum :=
      !sum
      + (!acc land 0x1FFFFF)
      + ((!acc lsr 21) land 0x1FFFFF)
      + (!acc lsr 42);
    g0 := gend
  done;
  if gf < glen then begin
    let p = 3 * gf in
    let b0 = Char.code (Bytes.unsafe_get xq (cb + Array.unsafe_get off p)) in
    let b1 =
      if p + 1 < kdim then
        Char.code (Bytes.unsafe_get xq (cb + Array.unsafe_get off (p + 1)))
      else 128
    in
    Array.unsafe_set xcol (base + gf) (128 lor (b1 lsl 21) lor (b0 lsl 42));
    sum := !sum + b0 + b1 + 128
  end;
  !sum

(* Exact-dot entry for property tests: biased bytes in, the int-exact
   signed-dot accumulator values out (no requantization). *)
let gemm_i8_exact ~m ~k ~n a b =
  if Bytes.length a <> m * k then invalid_arg "Tensor.gemm_i8_exact: bad A size";
  if Bytes.length b <> k * n then invalid_arg "Tensor.gemm_i8_exact: bad B size";
  let glen = (k + 2) / 3 in
  let k3 = 3 * glen in
  let wpb =
    qpack_rows ~co:m ~kdim:k (fun o p ->
        Char.code (Bytes.unsafe_get a ((o * k) + p)))
  in
  let rowsum =
    Array.init m (fun o ->
        let rs = ref 0 in
        for p = 0 to k - 1 do
          rs := !rs + Char.code (Bytes.unsafe_get a ((o * k) + p))
        done;
        !rs)
  in
  let crow = qcrow ~co:m ~kdim:k ~k3 rowsum in
  let off = Array.init k (fun p -> p * n) in
  let out = Array.make (m * n) 0 in
  let xcol = Array.make glen 0 in
  let pairs = (m + 1) / 2 in
  for j = 0 to n - 1 do
    let cs = qpack_col b off ~kdim:k ~glen xcol 0 j in
    for pr = 0 to pairs - 1 do
      let d0, d1 = qtile_2x1 wpb xcol (pr * glen * 2) 0 glen in
      let o0 = 2 * pr in
      out.((o0 * n) + j) <- d0 + crow.(o0) - (128 * cs);
      if o0 + 1 < m then
        out.(((o0 + 1) * n) + j) <- d1 + crow.(o0 + 1) - (128 * cs)
    done
  done;
  out

let act_slope = function `None -> 1. | `Relu -> 0. | `Leaky a -> a

(* Shared driver for the quantized convolutions: a stride-[stride]
   valid convolution of the packed weights over the padded biased image
   [xq] (n x ci x ph x pw bytes — callers bake padding or transpose
   zero-stuffing into the image, so the inner loops see no boundary
   tests at all).  Requantization, bias and activation fuse into the
   output store, writing [n; co; oh; ow] directly.  [slope] is the
   negative-side slope: 1.0 = identity, 0.0 = relu, a = leaky.
   Parallelism splits output columns; every output element is one fixed
   ascending dot chain of exact integer arithmetic, so any split (and
   any pair/tail tiling) is bit-identical. *)
let qconv_core ~n ~ci ~ph ~pw ~stride ~oh ~ow qw xscales zpoints bias slope xq
    out =
  let co = qw.qw_shape.(0) in
  let kh = qw.qw_shape.(2) and kw = qw.qw_shape.(3) in
  let kdim = ci * kh * kw in
  let glen = (kdim + 2) / 3 in
  let k3 = 3 * glen in
  let ohw = oh * ow in
  let ncol = n * ohw in
  let off = Array.make kdim 0 in
  for p = 0 to kdim - 1 do
    let c = p / (kh * kw) in
    let r = p mod (kh * kw) in
    off.(p) <- (((c * ph) + (r / kw)) * pw) + (r mod kw)
  done;
  let wpb =
    qpack_rows ~co ~kdim (fun o p ->
        Char.code (Bytes.unsafe_get qw.qw_data ((o * kdim) + p)))
  in
  let crow = qcrow ~co ~kdim ~k3 qw.qw_rowsum in
  (* true signed weight rowsums: the affine zero-point correction
     subtracts z * srow(o), cancelling both the pad bytes' contribution
     (their q is exactly z) and the interior offset in one term *)
  let srow = Array.map (fun rs -> rs - (128 * kdim)) qw.qw_rowsum in
  let biasv =
    match bias with
    | None -> Array.make co 0.
    | Some bt ->
        if Array.length bt.data <> co then
          invalid_arg "Tensor: bias length disagrees with output channels";
        Array.copy bt.data
  in
  let wscales = qw.qw_scales in
  let sample_q = ci * ph * pw in
  let pairs = (co + 1) / 2 in
  let run j0 j1 =
    let xcol = Array.make (2 * glen) 0 in
    let b = ref (j0 / ohw) in
    let rem0 = j0 - (!b * ohw) in
    let oy = ref (rem0 / ow) in
    let ox = ref (rem0 - (!oy * ow)) in
    let j = ref j0 in
    while !j < j1 do
      let cb =
        (!b * sample_q) + (!oy * stride * pw) + (!ox * stride)
      in
      let xs = Array.unsafe_get xscales !b in
      let z = Array.unsafe_get zpoints !b in
      let oidx = ((!b * co) * ohw) + (!oy * ow) + !ox in
      let took =
        if !j + 1 < j1 && !ox + 1 < ow then begin
          let cs0 = qpack_col xq off ~kdim ~glen xcol 0 cb in
          let cs1 = qpack_col xq off ~kdim ~glen xcol glen (cb + stride) in
          let e0 = -128 * cs0 and e1 = -128 * cs1 in
          for pr = 0 to pairs - 1 do
            let d00, d01, d10, d11 =
              qtile_2x2 wpb xcol (pr * glen * 2) 0 glen glen
            in
            let o0 = 2 * pr in
            let c0 =
              Array.unsafe_get crow o0 - (z * Array.unsafe_get srow o0)
            in
            let s0 = Array.unsafe_get wscales o0 *. xs in
            let b0 = Array.unsafe_get biasv o0 in
            let f00 = (float_of_int (d00 + e0 + c0) *. s0) +. b0 in
            let f01 = (float_of_int (d01 + e1 + c0) *. s0) +. b0 in
            let at0 = oidx + (o0 * ohw) in
            Array.unsafe_set out at0
              (if f00 < 0. then f00 *. slope else f00);
            Array.unsafe_set out (at0 + 1)
              (if f01 < 0. then f01 *. slope else f01);
            if o0 + 1 < co then begin
              let c1 =
                Array.unsafe_get crow (o0 + 1)
                - (z * Array.unsafe_get srow (o0 + 1))
              in
              let s1 = Array.unsafe_get wscales (o0 + 1) *. xs in
              let b1 = Array.unsafe_get biasv (o0 + 1) in
              let f10 = (float_of_int (d10 + e0 + c1) *. s1) +. b1 in
              let f11 = (float_of_int (d11 + e1 + c1) *. s1) +. b1 in
              let at1 = at0 + ohw in
              Array.unsafe_set out at1
                (if f10 < 0. then f10 *. slope else f10);
              Array.unsafe_set out (at1 + 1)
                (if f11 < 0. then f11 *. slope else f11)
            end
          done;
          2
        end
        else begin
          let cs0 = qpack_col xq off ~kdim ~glen xcol 0 cb in
          let e0 = -128 * cs0 in
          for pr = 0 to pairs - 1 do
            let d0, d1 = qtile_2x1 wpb xcol (pr * glen * 2) 0 glen in
            let o0 = 2 * pr in
            let c0 =
              Array.unsafe_get crow o0 - (z * Array.unsafe_get srow o0)
            in
            let s0 = Array.unsafe_get wscales o0 *. xs in
            let b0 = Array.unsafe_get biasv o0 in
            let f0 = (float_of_int (d0 + e0 + c0) *. s0) +. b0 in
            Array.unsafe_set out (oidx + (o0 * ohw))
              (if f0 < 0. then f0 *. slope else f0);
            if o0 + 1 < co then begin
              let c1 =
                Array.unsafe_get crow (o0 + 1)
                - (z * Array.unsafe_get srow (o0 + 1))
              in
              let s1 = Array.unsafe_get wscales (o0 + 1) *. xs in
              let b1 = Array.unsafe_get biasv (o0 + 1) in
              let f1 = (float_of_int (d1 + e0 + c1) *. s1) +. b1 in
              Array.unsafe_set out (oidx + ((o0 + 1) * ohw))
                (if f1 < 0. then f1 *. slope else f1)
            end
          done;
          1
        end
      in
      j := !j + took;
      ox := !ox + took;
      if !ox >= ow then begin
        ox := 0;
        incr oy;
        if !oy >= oh then begin
          oy := 0;
          incr b
        end
      end
    done
  in
  if ncol > 0 then
    if co * k3 * ncol < conv_par_macs then run 0 ncol
    else Pool.for_chunks ~chunk:(max 8 ((ncol + 127) / 128)) 0 ncol run

(* Per-sample affine activation quantization over the raw input:
   [x ~ s * (q - z)] with the scale spanning [min(x, 0) .. max(x, 0)],
   so zero is always exactly representable (the pad and zero-stuffing
   bytes encode it as [z + 128]) and one-sided distributions — every
   post-relu/leaky activation in the network — get the full 255-level
   range instead of half of it.  A symmetric sample degenerates to
   [z = 0], the plain symmetric scheme.  A sample's quantized image —
   and therefore its reply — never depends on its batchmates (the
   contract the serve result cache relies on). *)
let quantize_samples xd ~n ~sample xscales zpoints store =
  for b = 0 to n - 1 do
    let base = b * sample in
    let mn = ref 0. and mx = ref 0. in
    for idx = base to base + sample - 1 do
      let v = Array.unsafe_get xd idx in
      if v < !mn then mn := v;
      if v > !mx then mx := v
    done;
    let range = !mx -. !mn in
    let s = if range > 0. then range /. 254. else 1. in
    let z =
      (* mn <= 0, so the half-away nudge is always downward *)
      -127 - int_of_float ((!mn /. s) -. 0.5)
    in
    xscales.(b) <- s;
    zpoints.(b) <- z;
    store b (1. /. s) z
  done

let conv2d_batch_i8 ?(stride = 1) ?(pad = 0) ?(act = `None) x ~qweight:qw
    ~bias =
  check_rank4 "Tensor.conv2d_batch_i8" x;
  let n = x.shape.(0) and ci = x.shape.(1) in
  let h = x.shape.(2) and w = x.shape.(3) in
  if qw.qw_shape.(1) <> ci then
    invalid_arg "Tensor.conv2d_batch_i8: channel mismatch between input and weight";
  let co = qw.qw_shape.(0) in
  let kh = qw.qw_shape.(2) and kw = qw.qw_shape.(3) in
  if stride < 1 then invalid_arg "Tensor.conv2d_batch_i8: stride must be >= 1";
  let oh = ((h + (2 * pad) - kh) / stride) + 1 in
  let ow = ((w + (2 * pad) - kw) / stride) + 1 in
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.conv2d_batch_i8: empty output";
  let ph = h + (2 * pad) and pw = w + (2 * pad) in
  let out = Array.make (n * co * oh * ow) 0. in
  if n > 0 then begin
    let xd = x.data in
    let sample = ci * h * w in
    let sample_q = ci * ph * pw in
    let xscales = Array.make n 1. in
    let zpoints = Array.make n 0 in
    Workspace.with_bytes (n * sample_q) (fun xq ->
        quantize_samples xd ~n ~sample xscales zpoints (fun b inv z ->
            (* the border padding encodes x = 0, which the affine
               scheme represents as the sample's zero-point *)
            Bytes.fill xq (b * sample_q) sample_q (Char.unsafe_chr (z + 128));
            for c = 0 to ci - 1 do
              for y = 0 to h - 1 do
                let src = ((((b * ci) + c) * h) + y) * w in
                let dst = (((((b * ci) + c) * ph) + (y + pad)) * pw) + pad in
                for xx = 0 to w - 1 do
                  Bytes.unsafe_set xq (dst + xx)
                    (Char.unsafe_chr
                       (quantize_affine (Array.unsafe_get xd (src + xx)) inv z
                       + 128))
                done
              done
            done);
        qconv_core ~n ~ci ~ph ~pw ~stride ~oh ~ow qw xscales zpoints bias
          (act_slope act) xq out)
  end;
  make [| n; co; oh; ow |] out

(* Quantize a transposed-convolution weight ([ci; co; kh; kw]) into the
   equivalent *forward* kernel: output-channel-major, spatially flipped
   — a stride-1 convolution of this kernel over the zero-stuffed input
   is exactly the transposed convolution.  Scales are per output
   channel of the transposed conv. *)
let quantize_weight_transposed w =
  if rank w <> 4 then
    invalid_arg "Tensor.quantize_weight_transposed: weight must be rank 4";
  let ci = w.shape.(0) and co = w.shape.(1) in
  let kh = w.shape.(2) and kw = w.shape.(3) in
  let kdim = ci * kh * kw in
  let data = Bytes.create (co * kdim) in
  let scales = Array.make co 1. in
  let rowsum = Array.make co 0 in
  let wd = w.data in
  let src c o ky kx =
    Array.unsafe_get wd (((((c * co) + o) * kh) + ky) * kw + kx)
  in
  for o = 0 to co - 1 do
    let m = ref 0. in
    for c = 0 to ci - 1 do
      for ky = 0 to kh - 1 do
        for kx = 0 to kw - 1 do
          let v = Float.abs (src c o ky kx) in
          if v > !m then m := v
        done
      done
    done;
    let s = if !m > 0. then !m /. 127. else 1. in
    scales.(o) <- s;
    let inv = 1. /. s in
    let rs = ref 0 in
    for c = 0 to ci - 1 do
      for ky = 0 to kh - 1 do
        for kx = 0 to kw - 1 do
          let q = quantize_clamped (src c o (kh - 1 - ky) (kw - 1 - kx)) inv in
          Bytes.unsafe_set data
            ((o * kdim) + (((c * kh) + ky) * kw) + kx)
            (Char.unsafe_chr (q + 128));
          rs := !rs + (q + 128)
        done
      done
    done;
    rowsum.(o) <- !rs
  done;
  { qw_shape = [| co; ci; kh; kw |]; qw_data = data; qw_scales = scales;
    qw_rowsum = rowsum }

let conv2d_transpose_batch_i8 ?(stride = 1) ?(pad = 0) ?(act = `None) x
    ~qweight:qw ~bias =
  check_rank4 "Tensor.conv2d_transpose_batch_i8" x;
  let n = x.shape.(0) and ci = x.shape.(1) in
  let h = x.shape.(2) and w = x.shape.(3) in
  if qw.qw_shape.(1) <> ci then
    invalid_arg
      "Tensor.conv2d_transpose_batch_i8: channel mismatch between input and weight";
  let co = qw.qw_shape.(0) in
  let kh = qw.qw_shape.(2) and kw = qw.qw_shape.(3) in
  if stride < 1 then
    invalid_arg "Tensor.conv2d_transpose_batch_i8: stride must be >= 1";
  if pad > kh - 1 || pad > kw - 1 then
    invalid_arg "Tensor.conv2d_transpose_batch_i8: pad must be < kernel size";
  let oh = ((h - 1) * stride) + kh - (2 * pad) in
  let ow = ((w - 1) * stride) + kw - (2 * pad) in
  if oh <= 0 || ow <= 0 then
    invalid_arg "Tensor.conv2d_transpose_batch_i8: empty output";
  let eh = kh - 1 - pad and ew = kw - 1 - pad in
  let ph = ((h - 1) * stride) + 1 + (2 * eh) in
  let pw = ((w - 1) * stride) + 1 + (2 * ew) in
  let out = Array.make (n * co * oh * ow) 0. in
  if n > 0 && stride > 1 && kh = stride && kw = stride && pad = 0 then begin
    (* Exact fast path for the stride = kernel, pad = 0 case (the
       UNet's 2x2/stride-2 up-convolutions): in the zero-stuffed
       formulation every output pixel overlaps exactly one real input
       pixel — the other kh*kw - 1 taps read stuffed bytes, which
       encode the sample's zero-point and so contribute exactly zero
       to the debiased integer dot.  Dropping them changes nothing but
       the work: the whole transposed convolution collapses to one
       stride-1 1x1 convolution with stride^2 * co output rows (one
       per output-parity class, each holding that class's kernel tap
       slice), then a strided scatter.  Same integer accumulators,
       same float epilogue in the same order — bit-identical to the
       general path below, at 1/(stride^2) of the MACs and none of
       the stuffed-image traffic. *)
    let s = stride in
    let f = s * s * co in
    let kdim_full = ci * kh * kw in
    let fdata = Bytes.create (f * ci) in
    let fscales = Array.make f 1. in
    let frowsum = Array.make f 0 in
    for a = 0 to s - 1 do
      for bb = 0 to s - 1 do
        (* output parity (a, bb) reads flipped-kernel tap
           (s-1-a, s-1-bb): real pixels sit at (s-1) + s*y in the
           stuffed image, so oy + ky = (s-1) + s*y forces ky there *)
        let ky = s - 1 - a and kx = s - 1 - bb in
        for o = 0 to co - 1 do
          let fr = (((a * s) + bb) * co) + o in
          fscales.(fr) <- qw.qw_scales.(o);
          let rs = ref 0 in
          for c = 0 to ci - 1 do
            let byte =
              Bytes.unsafe_get qw.qw_data
                ((o * kdim_full) + ((((c * kh) + ky) * kw) + kx))
            in
            Bytes.unsafe_set fdata ((fr * ci) + c) byte;
            rs := !rs + Char.code byte
          done;
          frowsum.(fr) <- !rs
        done
      done
    done;
    let fqw =
      { qw_shape = [| f; ci; 1; 1 |]; qw_data = fdata; qw_scales = fscales;
        qw_rowsum = frowsum }
    in
    let fbias =
      match bias with
      | None -> None
      | Some bt ->
          if Array.length bt.data <> co then
            invalid_arg
              "Tensor.conv2d_transpose_batch_i8: bias length disagrees with \
               output channels";
          Some (make [| f |] (Array.init f (fun fr -> bt.data.(fr mod co))))
    in
    let xd = x.data in
    let sample = ci * h * w in
    let xscales = Array.make n 1. in
    let zpoints = Array.make n 0 in
    let tmp = Array.make (n * f * h * w) 0. in
    Workspace.with_bytes (n * sample) (fun xq ->
        quantize_samples xd ~n ~sample xscales zpoints (fun b inv z ->
            let base = b * sample in
            for idx = 0 to sample - 1 do
              Bytes.unsafe_set xq (base + idx)
                (Char.unsafe_chr
                   (quantize_affine (Array.unsafe_get xd (base + idx)) inv z
                   + 128))
            done);
        qconv_core ~n ~ci ~ph:h ~pw:w ~stride:1 ~oh:h ~ow:w fqw xscales
          zpoints fbias (act_slope act) xq tmp);
    let hw = h * w in
    for b = 0 to n - 1 do
      for a = 0 to s - 1 do
        for bb = 0 to s - 1 do
          for o = 0 to co - 1 do
            let fr = (((a * s) + bb) * co) + o in
            let src = ((b * f) + fr) * hw in
            let dst = ((b * co) + o) * oh * ow in
            for y = 0 to h - 1 do
              let srow = src + (y * w) in
              let drow = dst + ((((y * s) + a) * ow) + bb) in
              for xx = 0 to w - 1 do
                Array.unsafe_set out (drow + (xx * s))
                  (Array.unsafe_get tmp (srow + xx))
              done
            done
          done
        done
      done
    done
  end
  else if n > 0 then begin
    let xd = x.data in
    let sample = ci * h * w in
    let sample_q = ci * ph * pw in
    let xscales = Array.make n 1. in
    let zpoints = Array.make n 0 in
    Workspace.with_bytes (n * sample_q) (fun xq ->
        quantize_samples xd ~n ~sample xscales zpoints (fun b inv z ->
            (* stuffed zeros and the border extension both encode
               x = 0 — the sample's zero-point under the affine scheme *)
            Bytes.fill xq (b * sample_q) sample_q (Char.unsafe_chr (z + 128));
            for c = 0 to ci - 1 do
              for y = 0 to h - 1 do
                let src = ((((b * ci) + c) * h) + y) * w in
                let dst =
                  ((((((b * ci) + c) * ph) + eh + (y * stride)) * pw) + ew)
                in
                for xx = 0 to w - 1 do
                  Bytes.unsafe_set xq (dst + (xx * stride))
                    (Char.unsafe_chr
                       (quantize_affine (Array.unsafe_get xd (src + xx)) inv z
                       + 128))
                done
              done
            done);
        qconv_core ~n ~ci ~ph ~pw ~stride:1 ~oh ~ow qw xscales zpoints bias
          (act_slope act) xq out)
  end;
  make [| n; co; oh; ow |] out

(* ------------------------------------------------------------------ *)
(* Map utilities.                                                      *)
(* ------------------------------------------------------------------ *)

let resize_nearest m oh ow =
  if rank m <> 2 then invalid_arg "Tensor.resize_nearest: rank-2 only";
  if oh <= 0 || ow <= 0 then invalid_arg "Tensor.resize_nearest: empty target";
  let h = m.shape.(0) and w = m.shape.(1) in
  let out = Array.make (oh * ow) 0. in
  for oy = 0 to oh - 1 do
    let iy = min (h - 1) (oy * h / oh) in
    for ox = 0 to ow - 1 do
      let ix = min (w - 1) (ox * w / ow) in
      out.((oy * ow) + ox) <- m.data.((iy * w) + ix)
    done
  done;
  make [| oh; ow |] out

let as_rank3 t =
  match rank t with
  | 3 -> t
  | 2 -> reshape t [| 1; t.shape.(0); t.shape.(1) |]
  | _ -> invalid_arg "Tensor: expected a rank-2 or rank-3 tensor"

let concat_channels ts =
  if ts <> [] && List.for_all (fun t -> rank t = 4) ts then
    concat_channels_batch ts
  else
  match List.map as_rank3 ts with
  | [] -> invalid_arg "Tensor.concat_channels: empty list"
  | first :: _ as ts ->
      let h = first.shape.(1) and w = first.shape.(2) in
      List.iter
        (fun t ->
          if t.shape.(1) <> h || t.shape.(2) <> w then
            invalid_arg "Tensor.concat_channels: spatial mismatch")
        ts;
      let c = List.fold_left (fun acc t -> acc + t.shape.(0)) 0 ts in
      let out = Array.make (c * h * w) 0. in
      let pos = ref 0 in
      List.iter
        (fun t ->
          Array.blit t.data 0 out !pos (Array.length t.data);
          pos := !pos + Array.length t.data)
        ts;
      make [| c; h; w |] out

let slice_channels t lo n =
  if rank t = 4 then begin
    let nb = t.shape.(0) and c = t.shape.(1) in
    let hw = t.shape.(2) * t.shape.(3) in
    if lo < 0 || n < 0 || lo + n > c then
      invalid_arg "Tensor.slice_channels: out of range";
    let out = Array.make (nb * n * hw) 0. in
    for b = 0 to nb - 1 do
      Array.blit t.data (((b * c) + lo) * hw) out (b * n * hw) (n * hw)
    done;
    make [| nb; n; t.shape.(2); t.shape.(3) |] out
  end
  else
  let t = as_rank3 t in
  let c = t.shape.(0) and h = t.shape.(1) and w = t.shape.(2) in
  if lo < 0 || n < 0 || lo + n > c then
    invalid_arg "Tensor.slice_channels: out of range";
  let out = Array.make (n * h * w) 0. in
  Array.blit t.data (lo * h * w) out 0 (n * h * w);
  make [| n; h; w |] out

let channel t c =
  let s = slice_channels t c 1 in
  reshape s [| s.shape.(1); s.shape.(2) |]

let pad2d t p =
  if p < 0 then invalid_arg "Tensor.pad2d: negative padding";
  let t3 = as_rank3 t in
  let c = t3.shape.(0) and h = t3.shape.(1) and w = t3.shape.(2) in
  let oh = h + (2 * p) and ow = w + (2 * p) in
  let out = Array.make (c * oh * ow) 0. in
  for ch = 0 to c - 1 do
    for i = 0 to h - 1 do
      Array.blit t3.data ((ch * h * w) + (i * w)) out
        ((ch * oh * ow) + ((i + p) * ow) + p)
        w
    done
  done;
  let res = make [| c; oh; ow |] out in
  if rank t = 2 then reshape res [| oh; ow |] else res

let rot90_2 m =
  let h = m.shape.(0) and w = m.shape.(1) in
  (* counter-clockwise: out[w-1-j][i] = in[i][j] -> out has shape [w; h] *)
  let out = Array.make (w * h) 0. in
  for i = 0 to h - 1 do
    for j = 0 to w - 1 do
      out.(((w - 1 - j) * h) + i) <- m.data.((i * w) + j)
    done
  done;
  make [| w; h |] out

let rot90 t =
  match rank t with
  | 2 -> rot90_2 t
  | 3 ->
      let c = t.shape.(0) in
      concat_channels (List.init c (fun ch -> rot90_2 (channel t ch)))
  | _ -> invalid_arg "Tensor.rot90: rank-2 or rank-3 only"

let flip_last_axis t =
  let r = rank t in
  let w = t.shape.(r - 1) in
  let rows = Array.length t.data / w in
  let out = Array.make (Array.length t.data) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to w - 1 do
      out.((i * w) + (w - 1 - j)) <- t.data.((i * w) + j)
    done
  done;
  make (Array.copy t.shape) out

let flip_h t =
  match rank t with
  | 2 | 3 -> flip_last_axis t
  | _ -> invalid_arg "Tensor.flip_h: rank-2 or rank-3 only"

let flip_v t =
  let flip2 m =
    let h = m.shape.(0) and w = m.shape.(1) in
    let out = Array.make (h * w) 0. in
    for i = 0 to h - 1 do
      Array.blit m.data (i * w) out ((h - 1 - i) * w) w
    done;
    make [| h; w |] out
  in
  match rank t with
  | 2 -> flip2 t
  | 3 ->
      let c = t.shape.(0) in
      concat_channels (List.init c (fun ch -> flip2 (channel t ch)))
  | _ -> invalid_arg "Tensor.flip_v: rank-2 or rank-3 only"

let approx_equal ?(eps = 1e-9) a b =
  same_shape a b
  &&
  let ok = ref true in
  for i = 0 to Array.length a.data - 1 do
    if abs_float (a.data.(i) -. b.data.(i)) > eps then ok := false
  done;
  !ok

let pp ppf t =
  let shape_s =
    t.shape |> Array.to_list |> List.map string_of_int |> String.concat "x"
  in
  let n = Array.length t.data in
  let preview = Array.sub t.data 0 (min n 8) in
  Format.fprintf ppf "tensor[%s](%a%s)" shape_s
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf v -> Format.fprintf ppf "%.4g" v))
    (Array.to_list preview)
    (if n > 8 then ", ..." else "")
