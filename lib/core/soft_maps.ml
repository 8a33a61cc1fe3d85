module T = Dco3d_tensor.Tensor
module V = Dco3d_autodiff.Value
module Obs = Dco3d_obs.Obs
module Nl = Dco3d_netlist.Netlist
module Pl = Dco3d_place.Placement
module Fp = Dco3d_place.Floorplan

(* channel layout inside the fused [16; ny; nx] tensor *)
let ch_density = 0
let ch_pins = 1
let ch_rudy2d = 2
let ch_rudy3d = 3
let ch_pinrudy2d = 4
let ch_pinrudy3d = 5
let ch_macro = 6
let ch_thermal = 7
let n_ch = 8

let min_span = 0.10

let hard_assignment z =
  Array.init (T.numel z) (fun c -> if T.get_flat z c >= 0.5 then 1 else 0)

(* Per-net cache computed in the forward pass and reused by the
   backward pass. *)
type net_cache = {
  pins : Nl.endpoint array;  (** driver first *)
  px : float array;  (** pin positions snapshot *)
  py : float array;
  wtop : float array;  (** per-pin top weight (z for cells, 0 for IOs) *)
  bbox : float * float * float * float;
  arg_xl : int;  (** index into [pins] of the extreme pins *)
  arg_xh : int;
  arg_yl : int;
  arg_yh : int;
  weight : float;  (** (1/w + 1/h), clamped *)
  p_top : float;  (** prod of wtop *)
  p_bot : float;  (** prod of (1 - wtop) *)
  loo_top : float array;  (** leave-one-out products *)
  loo_bot : float array;
}

let leave_one_out a =
  let k = Array.length a in
  let prefix = Array.make (k + 1) 1. in
  let suffix = Array.make (k + 1) 1. in
  for i = 0 to k - 1 do
    prefix.(i + 1) <- prefix.(i) *. a.(i)
  done;
  for i = k - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) *. a.(i)
  done;
  (prefix.(k), Array.init k (fun i -> prefix.(i) *. suffix.(i + 1)))

let build ?thermal ~placement ~x ~y ~z ~nx ~ny () =
  let p = placement in
  let nl = p.Pl.nl in
  let fp = p.Pl.fp in
  let n = Nl.n_cells nl in
  if V.numel x <> n || V.numel y <> n || V.numel z <> n then
    invalid_arg "Soft_maps.build: coordinate vectors must have n_cells entries";
  let die_w = fp.Fp.width and die_h = fp.Fp.height in
  let bw = die_w /. float_of_int nx and bh = die_h /. float_of_int ny in
  let bin_area = bw *. bh in
  let xt = V.data x and yt = V.data y and zt = V.data z in
  let xs = Array.init n (T.get_flat xt) in
  let ys = Array.init n (T.get_flat yt) in
  let zs = Array.init n (T.get_flat zt) in
  let out = T.zeros [| 2 * n_ch; ny; nx |] in
  let plane die ch = (((die * n_ch) + ch) * ny * nx) in
  let addp die ch gy gx v =
    let idx = plane die ch + (gy * nx) + gx in
    T.set_flat out idx (T.get_flat out idx +. v)
  in

  (* ---------- bilinear tent splat ---------- *)
  (* returns the four (gy, gx, phi, dphi_dx, dphi_dy) taps *)
  let tent px py =
    let u = (px /. bw) -. 0.5 and v = (py /. bh) -. 0.5 in
    let i0 = int_of_float (floor u) and j0 = int_of_float (floor v) in
    let fu = u -. float_of_int i0 and fv = v -. float_of_int j0 in
    let cl_x i = max 0 (min (nx - 1) i) and cl_y j = max 0 (min (ny - 1) j) in
    [|
      (cl_y j0, cl_x i0, (1. -. fu) *. (1. -. fv),
       -.(1. -. fv) /. bw, -.(1. -. fu) /. bh);
      (cl_y j0, cl_x (i0 + 1), fu *. (1. -. fv), (1. -. fv) /. bw, -.fu /. bh);
      (cl_y (j0 + 1), cl_x i0, (1. -. fu) *. fv, -.fv /. bw, (1. -. fu) /. bh);
      (cl_y (j0 + 1), cl_x (i0 + 1), fu *. fv, fv /. bw, fu /. bh);
    |]
  in
  let clamp_x v = Float.max 0. (Float.min (die_w -. 1e-9) v) in
  let clamp_y v = Float.max 0. (Float.min (die_h -. 1e-9) v) in

  (* ---------- cell density + macro blockage ---------- *)
  for c = 0 to n - 1 do
    let area = Nl.cell_area nl c in
    if Nl.is_macro nl c then begin
      (* constant hard blockage on the macro's own tier *)
      let die = p.Pl.tier.(c) in
      let m = nl.Nl.masters.(c) in
      let w = m.Dco3d_netlist.Cell_lib.width in
      let h = m.Dco3d_netlist.Cell_lib.height in
      let x0 = xs.(c) -. (w /. 2.) and x1 = xs.(c) +. (w /. 2.) in
      let y0 = ys.(c) -. (h /. 2.) and y1 = ys.(c) +. (h /. 2.) in
      let gx0 = max 0 (int_of_float (x0 /. bw)) in
      let gx1 = min (nx - 1) (int_of_float (x1 /. bw)) in
      let gy0 = max 0 (int_of_float (y0 /. bh)) in
      let gy1 = min (ny - 1) (int_of_float (y1 /. bh)) in
      for gy = gy0 to gy1 do
        for gx = gx0 to gx1 do
          let ox = Float.max 0. (Float.min x1 (float_of_int (gx + 1) *. bw)
                                 -. Float.max x0 (float_of_int gx *. bw)) in
          let oy = Float.max 0. (Float.min y1 (float_of_int (gy + 1) *. bh)
                                 -. Float.max y0 (float_of_int gy *. bh)) in
          addp die ch_macro gy gx (ox *. oy /. bin_area);
          addp die ch_density gy gx (ox *. oy /. bin_area)
        done
      done
    end
    else begin
      let wt = zs.(c) in
      let taps = tent (clamp_x xs.(c)) (clamp_y ys.(c)) in
      Array.iter
        (fun (gy, gx, phi, _, _) ->
          let base = area /. bin_area *. phi in
          addp 0 ch_density gy gx (base *. (1. -. wt));
          addp 1 ch_density gy gx (base *. wt))
        taps
    end
  done;

  (* ---------- per-net quantities ---------- *)
  let signal_nets = Array.of_list (Nl.signal_nets nl) in
  let caches =
    Array.map
      (fun (net : Nl.net) ->
        let pins = Array.append [| net.Nl.driver |] net.Nl.sinks in
        let k = Array.length pins in
        let px = Array.make k 0. and py = Array.make k 0. in
        let wtop = Array.make k 0. in
        Array.iteri
          (fun i e ->
            match e with
            | Nl.Cell c ->
                px.(i) <- clamp_x xs.(c);
                py.(i) <- clamp_y ys.(c);
                wtop.(i) <- (if Nl.is_macro nl c then float_of_int p.Pl.tier.(c)
                             else zs.(c))
            | Nl.Io io ->
                px.(i) <- p.Pl.io_x.(io);
                py.(i) <- p.Pl.io_y.(io);
                wtop.(i) <- 0.)
          pins;
        let arg_xl = ref 0 and arg_xh = ref 0 and arg_yl = ref 0 and arg_yh = ref 0 in
        for i = 1 to k - 1 do
          if px.(i) < px.(!arg_xl) then arg_xl := i;
          if px.(i) > px.(!arg_xh) then arg_xh := i;
          if py.(i) < py.(!arg_yl) then arg_yl := i;
          if py.(i) > py.(!arg_yh) then arg_yh := i
        done;
        let x0 = px.(!arg_xl) and x1 = px.(!arg_xh) in
        let y0 = py.(!arg_yl) and y1 = py.(!arg_yh) in
        let w = Float.max min_span (x1 -. x0) in
        let h = Float.max min_span (y1 -. y0) in
        let weight = (1. /. w) +. (1. /. h) in
        let p_top, loo_top = leave_one_out wtop in
        let p_bot, loo_bot = leave_one_out (Array.map (fun v -> 1. -. v) wtop) in
        {
          pins; px; py; wtop;
          bbox = (x0, y0, x1, y1);
          arg_xl = !arg_xl; arg_xh = !arg_xh; arg_yl = !arg_yl; arg_yh = !arg_yh;
          weight; p_top; p_bot; loo_top; loo_bot;
        })
      signal_nets
  in

  (* RUDY tile iteration over a bbox *)
  let iter_tiles (x0, y0, x1, y1) f =
    let x1 = Float.max x1 (x0 +. min_span) and y1 = Float.max y1 (y0 +. min_span) in
    let gx0 = max 0 (min (nx - 1) (int_of_float (x0 /. bw))) in
    let gx1 = max 0 (min (nx - 1) (int_of_float (x1 /. bw))) in
    let gy0 = max 0 (min (ny - 1) (int_of_float (y0 /. bh))) in
    let gy1 = max 0 (min (ny - 1) (int_of_float (y1 /. bh))) in
    for gy = gy0 to gy1 do
      let ty0 = float_of_int gy *. bh and ty1 = float_of_int (gy + 1) *. bh in
      let oy = Float.min y1 ty1 -. Float.max y0 ty0 in
      if oy > 0. then
        for gx = gx0 to gx1 do
          let tx0 = float_of_int gx *. bw and tx1 = float_of_int (gx + 1) *. bw in
          let ox = Float.min x1 tx1 -. Float.max x0 tx0 in
          if ox > 0. then f gy gx ox oy
        done
    done
  in

  Array.iter
    (fun nc ->
      let p3d = Float.max 0. (1. -. nc.p_top -. nc.p_bot) in
      (* RUDY channels *)
      iter_tiles nc.bbox (fun gy gx ox oy ->
          let s = ox *. oy /. bin_area in
          addp 0 ch_rudy2d gy gx (nc.weight *. nc.p_bot *. s);
          addp 1 ch_rudy2d gy gx (nc.weight *. nc.p_top *. s);
          let v3 = 0.5 *. nc.weight *. p3d *. s in
          addp 0 ch_rudy3d gy gx v3;
          addp 1 ch_rudy3d gy gx v3);
      (* PinRUDY channels: tent splat at each pin *)
      Array.iteri
        (fun i _ ->
          let taps = tent nc.px.(i) nc.py.(i) in
          let wt = nc.wtop.(i) in
          Array.iter
            (fun (gy, gx, phi, _, _) ->
              addp 0 ch_pinrudy2d gy gx (nc.weight *. nc.p_bot *. (1. -. wt) *. phi);
              addp 1 ch_pinrudy2d gy gx (nc.weight *. nc.p_top *. wt *. phi);
              let v3 = 0.5 *. nc.weight *. p3d *. phi in
              addp 0 ch_pinrudy3d gy gx (v3 *. (1. -. wt));
              addp 1 ch_pinrudy3d gy gx (v3 *. wt))
            taps;
          (* pin density (unit weight) *)
          Array.iter
            (fun (gy, gx, phi, _, _) ->
              addp 0 ch_pins gy gx ((1. -. wt) *. phi /. bin_area);
              addp 1 ch_pins gy gx (wt *. phi /. bin_area))
            taps)
        nc.pins)
    caches;

  (* ---------- thermal plane: a frozen field ---------- *)
  (* The solved temperature-rise map enters the stack as a constant:
     the UNet sees it as an input channel, but position gradients flow
     through the dedicated Losses.thermal penalty (Gauss–Seidel-style
     alternation), not through re-solving the field on the tape. *)
  (match thermal with
  | None -> ()
  | Some tmap ->
      if T.rank tmap <> 3 || T.dim tmap 0 <> 2 || T.dim tmap 1 <> ny
         || T.dim tmap 2 <> nx
      then invalid_arg "Soft_maps.build: thermal map must be [2; ny; nx]";
      for die = 0 to 1 do
        for gy = 0 to ny - 1 do
          for gx = 0 to nx - 1 do
            addp die ch_thermal gy gx (T.get3 tmap die gy gx)
          done
        done
      done);

  (* ------------------------------------------------------------------ *)
  (* custom backward                                                     *)
  (* ------------------------------------------------------------------ *)
  let backward g =
    let gx_arr = T.zeros [| n |] and gy_arr = T.zeros [| n |] in
    let gz_arr = T.zeros [| n |] in
    let gp die ch gy gx = T.get_flat g (plane die ch + (gy * nx) + gx) in
    let bump arr c v = T.set_flat arr c (T.get_flat arr c +. v) in
    (* --- cell density --- *)
    for c = 0 to n - 1 do
      if not (Nl.is_macro nl c) then begin
        let area = Nl.cell_area nl c in
        let wt = zs.(c) in
        let taps = tent (clamp_x xs.(c)) (clamp_y ys.(c)) in
        Array.iter
          (fun (gy, gx, phi, dpx, dpy) ->
            let g0 = gp 0 ch_density gy gx and g1 = gp 1 ch_density gy gx in
            let a = area /. bin_area in
            bump gx_arr c (a *. dpx *. (((1. -. wt) *. g0) +. (wt *. g1)));
            bump gy_arr c (a *. dpy *. (((1. -. wt) *. g0) +. (wt *. g1)));
            bump gz_arr c (a *. phi *. (g1 -. g0)))
          taps
      end
    done;
    (* --- per-net channels --- *)
    Array.iter
      (fun nc ->
        let x0, y0, x1, y1 = nc.bbox in
        let w = Float.max min_span (x1 -. x0) in
        let h = Float.max min_span (y1 -. y0) in
        let p3d = Float.max 0. (1. -. nc.p_top -. nc.p_bot) in
        (* aggregate tile sums:
           sum_s[d]      = sum of S * g[d][rudy2d]
           sum_s3        = sum of S * (g0 + g1)[rudy3d]
           boundary sums = sum over tiles cut by each bbox edge *)
        let sum_s = [| 0.; 0. |] in
        let sum_s3 = ref 0. in
        let dxl = [| 0.; 0. |] and dxh = [| 0.; 0. |] in
        let dyl = [| 0.; 0. |] and dyh = [| 0.; 0. |] in
        let dxl3 = ref 0. and dxh3 = ref 0. and dyl3 = ref 0. and dyh3 = ref 0. in
        iter_tiles nc.bbox (fun gy gx ox oy ->
            let s = ox *. oy /. bin_area in
            let g0 = gp 0 ch_rudy2d gy gx and g1 = gp 1 ch_rudy2d gy gx in
            let g3 = gp 0 ch_rudy3d gy gx +. gp 1 ch_rudy3d gy gx in
            sum_s.(0) <- sum_s.(0) +. (s *. g0);
            sum_s.(1) <- sum_s.(1) +. (s *. g1);
            sum_s3 := !sum_s3 +. (s *. g3);
            (* dS/d(boundary): the tiles whose overlap is cut by the
               moving edge *)
            let tx0 = float_of_int gx *. bw and tx1 = float_of_int (gx + 1) *. bw in
            let ty0 = float_of_int gy *. bh and ty1 = float_of_int (gy + 1) *. bh in
            (* right edge x1 inside the tile: dox/dxh = 1 *)
            if x1 > tx0 && x1 <= tx1 then begin
              let d = oy /. bin_area in
              dxh.(0) <- dxh.(0) +. (d *. g0);
              dxh.(1) <- dxh.(1) +. (d *. g1);
              dxh3 := !dxh3 +. (d *. g3)
            end;
            if x0 >= tx0 && x0 < tx1 then begin
              let d = -.oy /. bin_area in
              dxl.(0) <- dxl.(0) +. (d *. g0);
              dxl.(1) <- dxl.(1) +. (d *. g1);
              dxl3 := !dxl3 +. (d *. g3)
            end;
            if y1 > ty0 && y1 <= ty1 then begin
              let d = ox /. bin_area in
              dyh.(0) <- dyh.(0) +. (d *. g0);
              dyh.(1) <- dyh.(1) +. (d *. g1);
              dyh3 := !dyh3 +. (d *. g3)
            end;
            if y0 >= ty0 && y0 < ty1 then begin
              let d = -.ox /. bin_area in
              dyl.(0) <- dyl.(0) +. (d *. g0);
              dyl.(1) <- dyl.(1) +. (d *. g1);
              dyl3 := !dyl3 +. (d *. g3)
            end);
        (* dW/d(edge) and dS/d(edge): both vanish while the span is
           clamped at min_span (moving the extreme pin then leaves the
           effective bbox unchanged) *)
        let x_live = x1 -. x0 > min_span and y_live = y1 -. y0 > min_span in
        let dw_dxh = if x_live then -1. /. (w *. w) else 0. in
        let dh_dyh = if y_live then -1. /. (h *. h) else 0. in
        if not x_live then begin
          dxl.(0) <- 0.; dxl.(1) <- 0.; dxh.(0) <- 0.; dxh.(1) <- 0.;
          dxl3 := 0.; dxh3 := 0.
        end;
        if not y_live then begin
          dyl.(0) <- 0.; dyl.(1) <- 0.; dyh.(0) <- 0.; dyh.(1) <- 0.;
          dyl3 := 0.; dyh3 := 0.
        end;
        (* Eq. 6: only the extreme pins receive position gradients *)
        let kinds d = if d = 0 then nc.p_bot else nc.p_top in
        let edge_grad ~darg ~dwd ~dsd ~dsd3 sign =
          (* total dL/d(coordinate of extreme pin):
             for each die d: kind_d * (dW * sum_s_d + W * dS_d)
             plus the 3D channel with 0.5 * p3d *)
          match nc.pins.(darg) with
          | Nl.Cell c when not (Nl.is_macro nl c) ->
              let acc = ref 0. in
              for d = 0 to 1 do
                acc :=
                  !acc
                  +. (kinds d *. ((sign *. dwd *. sum_s.(d)) +. (nc.weight *. dsd.(d))))
              done;
              acc :=
                !acc
                +. (0.5 *. p3d *. ((sign *. dwd *. !sum_s3) +. (nc.weight *. !dsd3)));
              Some (c, !acc)
          | Nl.Cell _ | Nl.Io _ -> None
        in
        (match edge_grad ~darg:nc.arg_xh ~dwd:dw_dxh ~dsd:dxh ~dsd3:dxh3 1. with
        | Some (c, v) -> bump gx_arr c v
        | None -> ());
        (match edge_grad ~darg:nc.arg_xl ~dwd:dw_dxh ~dsd:dxl ~dsd3:dxl3 (-1.) with
        | Some (c, v) -> bump gx_arr c v
        | None -> ());
        (match edge_grad ~darg:nc.arg_yh ~dwd:dh_dyh ~dsd:dyh ~dsd3:dyh3 1. with
        | Some (c, v) -> bump gy_arr c v
        | None -> ());
        (match edge_grad ~darg:nc.arg_yl ~dwd:dh_dyh ~dsd:dyl ~dsd3:dyl3 (-1.) with
        | Some (c, v) -> bump gy_arr c v
        | None -> ());
        (* z gradients through the soft tier products (RUDY channels) *)
        Array.iteri
          (fun i e ->
            match e with
            | Nl.Cell c when not (Nl.is_macro nl c) ->
                let dtop = nc.loo_top.(i) in
                let dbot = -.nc.loo_bot.(i) in
                let d3 = if p3d > 0. then -.dtop -. dbot else 0. in
                bump gz_arr c
                  (nc.weight
                  *. ((dbot *. sum_s.(0)) +. (dtop *. sum_s.(1))
                     +. (0.5 *. d3 *. !sum_s3)))
            | Nl.Cell _ | Nl.Io _ -> ())
          nc.pins;
        (* PinRUDY + pin-density backward: tent position gradients with
           the net-level scales treated as constants (sub-gradient
           choice, like Eq. 6 keeps only the dominant terms), plus the
           local z factor *)
        Array.iteri
          (fun i e ->
            match e with
            | Nl.Cell c when not (Nl.is_macro nl c) ->
                let wt = nc.wtop.(i) in
                let taps = tent nc.px.(i) nc.py.(i) in
                Array.iter
                  (fun (gy, gx, phi, dpx, dpy) ->
                    let gpin0 = gp 0 ch_pins gy gx and gpin1 = gp 1 ch_pins gy gx in
                    let gpr0 = gp 0 ch_pinrudy2d gy gx and gpr1 = gp 1 ch_pinrudy2d gy gx in
                    let g3p0 = gp 0 ch_pinrudy3d gy gx and g3p1 = gp 1 ch_pinrudy3d gy gx in
                    let w2_0 = nc.weight *. nc.p_bot and w2_1 = nc.weight *. nc.p_top in
                    let w3 = 0.5 *. nc.weight *. p3d in
                    (* coefficient of phi for each channel/die *)
                    let coef_x =
                      ((1. -. wt) *. ((gpin0 /. bin_area) +. (w2_0 *. gpr0) +. (w3 *. g3p0)))
                      +. (wt *. ((gpin1 /. bin_area) +. (w2_1 *. gpr1) +. (w3 *. g3p1)))
                    in
                    bump gx_arr c (coef_x *. dpx);
                    bump gy_arr c (coef_x *. dpy);
                    (* z: d/dz of the local (1-wt)/wt factors *)
                    bump gz_arr c
                      (phi
                      *. (-.((gpin0 /. bin_area) +. (w2_0 *. gpr0) +. (w3 *. g3p0))
                         +. ((gpin1 /. bin_area) +. (w2_1 *. gpr1) +. (w3 *. g3p1)))))
                  taps
            | Nl.Cell _ | Nl.Io _ -> ())
          nc.pins)
      caches;
    [ Some gx_arr; Some gy_arr; Some gz_arr ]
  in
  let fused =
    V.custom ~data:out ~parents:[ x; y; z ] ~backward:(fun g ->
        Obs.with_span "soft_maps_bwd" (fun () -> backward g))
  in
  (V.slice_channels fused 0 n_ch, V.slice_channels fused n_ch n_ch)
