module T = Dco3d_tensor.Tensor
module Obs = Dco3d_obs.Obs

type t = {
  id : int;
  data : T.t;
  mutable grad : T.t option;
  requires_grad : bool;
  parents : t list;
  (* [backward gout] returns one gradient option per parent. *)
  backward : (T.t -> T.t option list) option;
}

let counter = Atomic.make 0
let next_id () = Atomic.fetch_and_add counter 1 + 1

let data v = v.data
let requires_grad v = v.requires_grad
let shape v = T.shape v.data
let numel v = T.numel v.data

let grad v =
  match v.grad with Some g -> g | None -> T.zeros (T.shape v.data)

let const data =
  { id = next_id (); data; grad = None; requires_grad = false; parents = []; backward = None }

let param data =
  { id = next_id (); data; grad = None; requires_grad = true; parents = []; backward = None }

let scalar x = const (T.scalar x)

(* Per domain, so inference on one domain never switches off recording
   for a graph another domain is building. *)
let recording = Domain.DLS.new_key (fun () -> true)

let no_grad f =
  let prev = Domain.DLS.get recording in
  Domain.DLS.set recording false;
  Fun.protect ~finally:(fun () -> Domain.DLS.set recording prev) f

let node data parents backward =
  if Domain.DLS.get recording && List.exists (fun p -> p.requires_grad) parents
  then
    { id = next_id (); data; grad = None; requires_grad = true; parents;
      backward = Some backward }
  else const data

(* A parent's gradient, computed only if the parent wants one. *)
let want p f = if p.requires_grad then Some (f ()) else None

let custom ~data ~parents ~backward = node data parents backward

(* ------------------------------------------------------------------ *)
(* Elementwise                                                         *)
(* ------------------------------------------------------------------ *)

let add a b =
  node (T.add a.data b.data) [ a; b ] (fun g -> [ Some g; Some g ])

let sub a b =
  node (T.sub a.data b.data) [ a; b ] (fun g -> [ Some g; Some (T.neg g) ])

let mul a b =
  node (T.mul a.data b.data) [ a; b ] (fun g ->
      [ Some (T.mul g b.data); Some (T.mul g a.data) ])

let div a b =
  let y = T.div a.data b.data in
  node y [ a; b ] (fun g ->
      let ga = T.map2 (fun gv bv -> gv /. bv) g b.data in
      (* d(a/b)/db = -a / b^2 *)
      let gb =
        T.map2 (fun gv yv_over_b -> gv *. yv_over_b)
          g
          (T.map2 (fun yv bv -> -.yv /. bv) y b.data)
      in
      [ Some ga; Some gb ])

let neg a = node (T.neg a.data) [ a ] (fun g -> [ Some (T.neg g) ])
let scale s a = node (T.scale s a.data) [ a ] (fun g -> [ Some (T.scale s g) ])
let add_scalar s a = node (T.add_scalar s a.data) [ a ] (fun g -> [ Some g ])

let relu a =
  node (T.relu a.data) [ a ] (fun g -> [ Some (T.relu_backward ~input:a.data g) ])

let leaky_relu slope a =
  node (T.leaky_relu slope a.data) [ a ] (fun g ->
      [ Some (T.leaky_relu_backward slope ~input:a.data g) ])

let sigmoid a =
  let y = T.sigmoid a.data in
  node y [ a ] (fun g ->
      [ Some (T.map2 (fun gv yv -> gv *. yv *. (1. -. yv)) g y) ])

let tanh_ a =
  let y = T.tanh_ a.data in
  node y [ a ] (fun g ->
      [ Some (T.map2 (fun gv yv -> gv *. (1. -. (yv *. yv))) g y) ])

let sqr a =
  node (T.sqr a.data) [ a ] (fun g ->
      [ Some (T.map2 (fun gv xv -> 2. *. gv *. xv) g a.data) ])

let sqrt_ a =
  let y = T.sqrt_ a.data in
  node y [ a ] (fun g ->
      [ Some (T.map2 (fun gv yv -> gv /. (2. *. Float.max yv 1e-12)) g y) ])

(* ------------------------------------------------------------------ *)
(* Linear algebra                                                      *)
(* ------------------------------------------------------------------ *)

let matmul a b =
  node (T.matmul a.data b.data) [ a; b ] (fun g ->
      [
        Some (T.matmul g (T.transpose2 b.data));
        Some (T.matmul (T.transpose2 a.data) g);
      ])

let sum a =
  node (T.scalar (T.sum a.data)) [ a ] (fun g ->
      let gv = T.get_flat g 0 in
      [ Some (T.full (T.shape a.data) gv) ])

let mean a =
  let n = float_of_int (max 1 (T.numel a.data)) in
  node (T.scalar (T.mean a.data)) [ a ] (fun g ->
      let gv = T.get_flat g 0 /. n in
      [ Some (T.full (T.shape a.data) gv) ])

let dot a b =
  node (T.scalar (T.dot a.data b.data)) [ a; b ] (fun g ->
      let gv = T.get_flat g 0 in
      [ Some (T.scale gv b.data); Some (T.scale gv a.data) ])

let add_bias_rows x b =
  if T.rank x.data <> 2 || T.rank b.data <> 1 then
    invalid_arg "Value.add_bias_rows: expected rank-2 x and rank-1 b";
  let n = T.dim x.data 0 and f = T.dim x.data 1 in
  if T.dim b.data 0 <> f then invalid_arg "Value.add_bias_rows: width mismatch";
  let y = T.copy x.data in
  for i = 0 to n - 1 do
    for j = 0 to f - 1 do
      T.set2 y i j (T.get2 y i j +. T.get_flat b.data j)
    done
  done;
  node y [ x; b ] (fun g ->
      let gb = T.zeros [| f |] in
      for i = 0 to n - 1 do
        for j = 0 to f - 1 do
          T.set_flat gb j (T.get_flat gb j +. T.get2 g i j)
        done
      done;
      [ Some g; Some gb ])

(* ------------------------------------------------------------------ *)
(* Convolution / pooling                                               *)
(* ------------------------------------------------------------------ *)

(* Rank-3 activations are one sample, rank-4 ones a batch; the kernels
   split the batch across domains, and the weight and bias gradients sum
   the per-sample chains in ascending sample order.  Each kernel call
   runs in its own Obs span (forward, backward-input, backward-weight),
   so a traced run's stage profile shows where a training epoch or an
   Algorithm-2 iteration spends its convolution time. *)
let conv2d ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let y =
    Obs.with_span "conv_fwd" (fun () ->
        T.conv2d_batch ~stride ~pad x.data ~weight:weight.data
          ~bias:(Option.map data bias))
  in
  node y (x :: weight :: Option.to_list bias) (fun g ->
      want x (fun () ->
          Obs.with_span "conv_bwd_input" (fun () ->
              T.conv2d_backward_input_batch ~stride ~pad
                ~input_shape:(T.shape x.data) ~weight:weight.data g))
      :: want weight (fun () ->
             Obs.with_span "conv_bwd_weight" (fun () ->
                 T.conv2d_backward_weight_batch ~stride ~pad ~input:x.data
                   ~weight_shape:(T.shape weight.data) g))
      :: List.map (fun b -> want b (fun () -> T.channel_sums g)) (Option.to_list bias))

let conv2d_transpose ?(stride = 1) ?(pad = 0) x ~weight ~bias =
  let y =
    Obs.with_span "convT_fwd" (fun () ->
        T.conv2d_transpose_batch ~stride ~pad x.data ~weight:weight.data
          ~bias:(Option.map data bias))
  in
  node y (x :: weight :: Option.to_list bias) (fun g ->
      (* Transposed conv forward == conv backward-input, so its input
         gradient is a plain convolution of g with the same kernel
         (viewed as [ci <- co]), and the weight gradient mirrors
         conv2d_backward_weight with the roles of x and g exchanged. *)
      want x (fun () ->
          Obs.with_span "convT_bwd_input" (fun () ->
              T.conv2d_batch ~stride ~pad g ~weight:weight.data ~bias:None))
      :: want weight (fun () ->
             Obs.with_span "convT_bwd_weight" (fun () ->
                 T.conv2d_backward_weight_batch ~stride ~pad ~input:g
                   ~weight_shape:(T.shape weight.data) x.data))
      :: List.map (fun b -> want b (fun () -> T.channel_sums g)) (Option.to_list bias))

let maxpool2 x =
  let y, arg = T.maxpool2 x.data in
  node y [ x ] (fun g ->
      [ Some (T.maxpool2_backward ~input_shape:(T.shape x.data) arg g) ])

let upsample_nearest2 x =
  let y = T.upsample_nearest2 x.data in
  node y [ x ] (fun g ->
      (* gradient: sum the 2x2 block of g into each input pixel *)
      let c = T.dim x.data 0 and h = T.dim x.data 1 and w = T.dim x.data 2 in
      let gin = T.zeros [| c; h; w |] in
      for ch = 0 to c - 1 do
        for oy = 0 to (2 * h) - 1 do
          for ox = 0 to (2 * w) - 1 do
            T.set3 gin ch (oy / 2) (ox / 2)
              (T.get3 gin ch (oy / 2) (ox / 2) +. T.get3 g ch oy ox)
          done
        done
      done;
      [ Some gin ])

let concat_channels xs =
  match xs with
  | [] -> invalid_arg "Value.concat_channels: empty list"
  | _ ->
      let y = T.concat_channels (List.map (fun x -> x.data) xs) in
      let channel_count t =
        match T.rank t with 4 -> T.dim t 1 | 3 -> T.dim t 0 | _ -> 1
      in
      node y xs (fun g ->
          let pos = ref 0 in
          List.map
            (fun x ->
              let c = channel_count x.data in
              let slice = T.slice_channels g !pos c in
              pos := !pos + c;
              Some (T.reshape slice (T.shape x.data)))
            xs)

let slice_channels x lo n =
  let y = T.slice_channels x.data lo n in
  node y [ x ] (fun g ->
      let gx = T.zeros (T.shape x.data) in
      let x3shape =
        match T.rank x.data with
        | 3 -> T.shape x.data
        | 2 -> [| 1; T.dim x.data 0; T.dim x.data 1 |]
        | _ -> invalid_arg "Value.slice_channels backward"
      in
      let hw = x3shape.(1) * x3shape.(2) in
      for i = 0 to (n * hw) - 1 do
        T.set_flat gx ((lo * hw) + i) (T.get_flat g i)
      done;
      [ Some gx ])

(* Batch axis.  The Siamese UNet stacks both dies on it and lets the
   communication layer swap the halves. *)
let stack xs =
  node (T.cat_batch (List.map data xs)) xs (fun g ->
      let pos = ref 0 in
      List.map
        (fun x ->
          let n = if T.rank x.data = 3 then 1 else T.dim x.data 0 in
          let gx = T.slice_batch g !pos n in
          pos := !pos + n;
          Some (T.reshape gx (T.shape x.data)))
        xs)

let batch_slice x lo n =
  let rest = Array.sub (T.shape x.data) 1 3 in
  let zeros k = T.zeros (Array.append [| k |] rest) in
  node (T.slice_batch x.data lo n) [ x ] (fun g ->
      [ Some (T.cat_batch [ zeros lo; g; zeros (T.dim x.data 0 - lo - n) ]) ])

let swap_halves x =
  node (T.swap_halves x.data) [ x ] (fun g -> [ Some (T.swap_halves g) ])

let reshape x sh =
  let y = T.reshape (T.copy x.data) sh in
  node y [ x ] (fun g -> [ Some (T.reshape (T.copy g) (T.shape x.data)) ])

let columns x =
  if T.rank x.data <> 2 then invalid_arg "Value.columns: rank-2 only";
  let n = T.dim x.data 0 and f = T.dim x.data 1 in
  Array.init f (fun j ->
      let col = T.init [| n |] (fun i -> T.get2 x.data i.(0) j) in
      node col [ x ] (fun g ->
          let gx = T.zeros [| n; f |] in
          for i = 0 to n - 1 do
            T.set2 gx i j (T.get_flat g i)
          done;
          [ Some gx ]))

let mse x target =
  if not (T.same_shape x.data target) then invalid_arg "Value.mse: shape mismatch";
  let n = float_of_int (max 1 (T.numel target)) in
  let diff = T.sub x.data target in
  let loss = T.dot diff diff /. n in
  node (T.scalar loss) [ x ] (fun g ->
      let gv = 2. *. T.get_flat g 0 /. n in
      [ Some (T.scale gv diff) ])

let rmse_frobenius x target =
  if not (T.same_shape x.data target) then
    invalid_arg "Value.rmse_frobenius: shape mismatch";
  let n = float_of_int (max 1 (T.numel target)) in
  let diff = T.sub x.data target in
  let msev = T.dot diff diff /. n in
  let rmse = sqrt msev in
  node (T.scalar rmse) [ x ] (fun g ->
      let gv = T.get_flat g 0 in
      let denom = Float.max rmse 1e-12 in
      [ Some (T.scale (gv /. (denom *. n)) diff) ])

let add_list = function
  | [] -> invalid_arg "Value.add_list: empty list"
  | x :: rest -> List.fold_left add x rest

(* ------------------------------------------------------------------ *)
(* Backward pass                                                       *)
(* ------------------------------------------------------------------ *)

let accumulate v g =
  match v.grad with
  | None -> v.grad <- Some (T.copy g)
  | Some acc -> T.axpy ~alpha:1. g acc

let backward root =
  if T.numel root.data <> 1 then
    invalid_arg "Value.backward: root must be a scalar";
  (* Topological order via iterative DFS. *)
  let visited = Hashtbl.create 256 in
  let order = ref [] in
  let rec visit v =
    if (not (Hashtbl.mem visited v.id)) && v.requires_grad then begin
      Hashtbl.add visited v.id ();
      List.iter visit v.parents;
      order := v :: !order
    end
  in
  visit root;
  root.grad <- Some (T.ones (T.shape root.data));
  List.iter
    (fun v ->
      match (v.backward, v.grad) with
      | Some bw, Some g ->
          let parent_grads = bw g in
          (try
             List.iter2
               (fun p gp ->
                 match gp with
                 | Some gp when p.requires_grad -> accumulate p gp
                 | _ -> ())
               v.parents parent_grads
           with Invalid_argument _ ->
             invalid_arg "Value.backward: backward arity mismatch");
          (* Free intermediate gradients eagerly to bound memory. *)
          if v.backward <> None then v.grad <- None
      | _ -> ())
    !order

let zero_grad v = v.grad <- None

(* ------------------------------------------------------------------ *)
(* Gradient checking                                                   *)
(* ------------------------------------------------------------------ *)

let gradient_check ?(eps = 1e-5) ?(tol = 1e-4) f x0 =
  let p = param (T.copy x0) in
  let loss = f p in
  backward loss;
  let analytic = grad p in
  let ok = ref true in
  let n = T.numel x0 in
  for i = 0 to n - 1 do
    let eval v =
      let x = T.copy x0 in
      T.set_flat x i v;
      T.get_flat (data (f (param x))) 0
    in
    let x = T.get_flat x0 i in
    let fd = (eval (x +. eps) -. eval (x -. eps)) /. (2. *. eps) in
    let a = T.get_flat analytic i in
    let scale_ref = Float.max 1. (Float.max (abs_float fd) (abs_float a)) in
    if abs_float (fd -. a) /. scale_ref > tol then ok := false
  done;
  !ok
