module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type t = { params : V.t list; forward : V.t -> V.t }

let conv2d rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| out_channels; in_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d ~stride ~pad x ~weight:w ~bias:b);
  }

let conv2d_transpose rng ?(stride = 1) ?(pad = 0) ?(bias = true) ~in_channels
    ~out_channels ~ksize () =
  let fan_in = in_channels * ksize * ksize in
  let w = V.param (T.kaiming rng ~fan_in [| in_channels; out_channels; ksize; ksize |]) in
  let b = if bias then Some (V.param (T.zeros [| out_channels |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward = (fun x -> V.conv2d_transpose ~stride ~pad x ~weight:w ~bias:b);
  }

let pointwise rng ~in_channels ~out_channels () =
  conv2d rng ~in_channels ~out_channels ~ksize:1 ()

let linear rng ?(bias = true) ~in_dim ~out_dim () =
  let w = V.param (T.kaiming rng ~fan_in:in_dim [| in_dim; out_dim |]) in
  let b = if bias then Some (V.param (T.zeros [| out_dim |])) else None in
  let params = w :: Option.to_list b in
  {
    params;
    forward =
      (fun x ->
        let y = V.matmul x w in
        match b with Some b -> V.add_bias_rows y b | None -> y);
  }

let activation f = { params = []; forward = f }
let relu = activation V.relu
let leaky_relu slope = activation (V.leaky_relu slope)
let sigmoid = activation V.sigmoid
let tanh_ = activation V.tanh_
let maxpool2 = activation V.maxpool2

let seq layers =
  {
    params = List.concat_map (fun l -> l.params) layers;
    forward = (fun x -> List.fold_left (fun acc l -> l.forward acc) x layers);
  }

let num_params l = List.fold_left (fun acc p -> acc + V.numel p) 0 l.params

let state l = List.map (fun p -> T.copy (V.data p)) l.params

let load_state l snapshot =
  if List.length snapshot <> List.length l.params then
    invalid_arg "Layer.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Layer.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    l.params snapshot
