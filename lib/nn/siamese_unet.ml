module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value

type config = { in_channels : int; base_channels : int; depth : int }

let default_config = { in_channels = 8; base_channels = 8; depth = 2 }

(* One resolution level of the encoder/decoder. *)
type level = {
  enc : Layer.t;  (** double conv at this resolution *)
  up : Layer.t;  (** transposed conv from the level below *)
  dec : Layer.t;  (** double conv after skip concatenation *)
}

type t = {
  cfg : config;
  levels : level array;  (** index 0 = full resolution *)
  bottleneck : Layer.t;
  comm_self : Layer.t;  (** pointwise conv on the die's own bottleneck *)
  comm_cross : Layer.t;  (** pointwise conv on the other die's bottleneck *)
  head : Layer.t;  (** 1x1 conv to a single congestion channel *)
}

let double_conv rng ~in_channels ~out_channels =
  Layer.seq
    [
      Layer.conv2d rng ~pad:1 ~in_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
      Layer.conv2d rng ~pad:1 ~in_channels:out_channels ~out_channels ~ksize:3 ();
      Layer.leaky_relu 0.1;
    ]

let create rng cfg =
  if cfg.depth < 1 || cfg.depth > 2 then
    invalid_arg "Siamese_unet.create: depth must be 1 or 2";
  let base = cfg.base_channels in
  let ch level = base * (1 lsl level) in
  let levels =
    Array.init cfg.depth (fun l ->
        let cin = if l = 0 then cfg.in_channels else ch (l - 1) in
        let c = ch l in
        {
          enc = double_conv rng ~in_channels:cin ~out_channels:c;
          up =
            Layer.conv2d_transpose rng ~stride:2 ~in_channels:(ch (l + 1))
              ~out_channels:c ~ksize:2 ();
          dec = double_conv rng ~in_channels:(2 * c) ~out_channels:c;
        })
  in
  let cb = ch cfg.depth in
  let bottleneck = double_conv rng ~in_channels:(ch (cfg.depth - 1)) ~out_channels:cb in
  (* The communication layer merges the two bottlenecks through
     pointwise convolutions.  Writing it as [out_d = act (self b_d +
     cross b_other)] with the same (self, cross) weights for both dies
     keeps the architecture exactly equivariant under die exchange —
     the interchangeability the Siamese design is built for. *)
  let comm_self = Layer.pointwise rng ~in_channels:cb ~out_channels:cb () in
  let comm_cross = Layer.pointwise rng ~in_channels:cb ~out_channels:cb () in
  let head = Layer.pointwise rng ~in_channels:base ~out_channels:1 () in
  { cfg; levels; bottleneck; comm_self; comm_cross; head }

(* Encoder over a batch: returns skip activations (one per level) and
   the bottleneck activation. *)
let encode net x =
  let skips = Array.make (Array.length net.levels) x in
  let cur = ref x in
  Array.iteri
    (fun l level ->
      let a = level.enc.Layer.forward !cur in
      skips.(l) <- a;
      cur := V.maxpool2 a)
    net.levels;
  (skips, net.bottleneck.Layer.forward !cur)

(* Decoder given the (communicated) bottleneck. *)
let decode net skips bottom =
  let cur = ref bottom in
  for l = Array.length net.levels - 1 downto 0 do
    let level = net.levels.(l) in
    let up = level.up.Layer.forward !cur in
    let cat = V.concat_channels [ up; skips.(l) ] in
    cur := level.dec.Layer.forward cat
  done;
  net.head.Layer.forward !cur

(* Both dies run as one graph: die 0's samples then die 1's on the batch
   axis, so every conv sees the whole batch once.  The communication
   layer (Fig. 3b) is [self b + cross (swap_halves b)]: each die's
   decoder gets its own bottleneck through the shared self conv and the
   other die's through the shared cross conv. *)
let forward net f0 f1 =
  let n = match V.shape f0 with [| _; _; _ |] -> 1 | sh -> sh.(0) in
  let skips, b = encode net (V.stack [ f0; f1 ]) in
  let b' =
    V.leaky_relu 0.1
      (V.add
         (net.comm_self.Layer.forward b)
         (net.comm_cross.Layer.forward (V.swap_halves b)))
  in
  let c = decode net skips b' in
  (V.batch_slice c 0 n, V.batch_slice c n n)

let predict_batch net pairs =
  if Array.length pairs = 0 then [||]
  else begin
    let x0 = T.stack (Array.map fst pairs) in
    let x1 = T.stack (Array.map snd pairs) in
    let c0, c1 =
      V.no_grad (fun () ->
          let c0, c1 = forward net (V.const x0) (V.const x1) in
          (V.data c0, V.data c1))
    in
    (* each sample comes back as [1; h; w]; flatten to the rank-2 map
       [predict] returns *)
    let split c =
      Array.map
        (fun m -> T.reshape m [| T.dim m 1; T.dim m 2 |])
        (T.unstack c)
    in
    Array.map2 (fun a b -> (a, b)) (split c0) (split c1)
  end

let predict net f0 f1 = (predict_batch net [| (f0, f1) |]).(0)

let all_layers net =
  List.concat
    [
      Array.to_list net.levels
      |> List.concat_map (fun l -> [ l.enc; l.up; l.dec ]);
      [ net.bottleneck; net.comm_self; net.comm_cross; net.head ];
    ]

let params net = List.concat_map (fun l -> l.Layer.params) (all_layers net)
let num_params net = List.fold_left (fun acc p -> acc + V.numel p) 0 (params net)
let config net = net.cfg

let state net = List.map (fun p -> T.copy (V.data p)) (params net)

let fingerprint net =
  let weights =
    List.map
      (fun p ->
        let d = V.data p in
        (T.shape d, Array.init (T.numel d) (T.get_flat d)))
      (params net)
  in
  Digest.to_hex (Digest.string (Marshal.to_string (net.cfg, weights) []))

let load_state net snapshot =
  let ps = params net in
  if List.length snapshot <> List.length ps then
    invalid_arg "Siamese_unet.load_state: parameter count mismatch";
  List.iter2
    (fun p s ->
      let d = V.data p in
      if not (T.same_shape d s) then
        invalid_arg "Siamese_unet.load_state: shape mismatch";
      for i = 0 to T.numel d - 1 do
        T.set_flat d i (T.get_flat s i)
      done)
    ps snapshot

(* Persistence: a tagged Marshal image of the config plus raw
   (shape, data) pairs.  The file is only ever read back by [load], so
   the representation can stay internal. *)
type snapshot = {
  s_cfg : config;
  s_weights : (int array * float array) list;
}

let magic = "DCO3D-SIAUNET-V1"

let save net path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let snap =
        {
          s_cfg = net.cfg;
          s_weights =
            List.map
              (fun p ->
                let d = V.data p in
                (T.shape d, Array.init (T.numel d) (T.get_flat d)))
              (params net);
        }
      in
      Marshal.to_channel oc snap [])

exception Load_error of string

let load_error path cause =
  raise (Load_error (Printf.sprintf "Siamese_unet.load: %s: %s" path cause))

let config_string c =
  Printf.sprintf "{in_channels=%d; base_channels=%d; depth=%d}" c.in_channels
    c.base_channels c.depth

let load ?expect path =
  let ic =
    try open_in_bin path with Sys_error msg -> load_error path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let snap : snapshot =
        try
          let tag = really_input_string ic (String.length magic) in
          if tag <> magic then load_error path "bad file magic";
          Marshal.from_channel ic
        with
        | End_of_file -> load_error path "truncated file"
        | Failure msg -> load_error path msg
      in
      (* Reject before building anything: a wrong-architecture file must
         fail here with a clear message, not deep inside a conv once a
         wrong-shaped network is already in use. *)
      let cfg = snap.s_cfg in
      if cfg.in_channels < 1 || cfg.base_channels < 1 || cfg.depth < 1
         || cfg.depth > 2
      then load_error path ("invalid architecture " ^ config_string cfg);
      (match expect with
      | Some e when e <> cfg ->
          load_error path
            (Printf.sprintf
               "architecture mismatch: file holds weights for %s, requested %s"
               (config_string cfg) (config_string e))
      | _ -> ());
      try
        let net = create (Dco3d_tensor.Rng.create 0) cfg in
        load_state net
          (List.map (fun (shape, data) -> T.make shape data) snap.s_weights);
        net
      with Invalid_argument msg ->
        load_error path
          (Printf.sprintf "weights disagree with the declared architecture %s (%s)"
             (config_string cfg) msg))
