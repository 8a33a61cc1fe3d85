(* Grow-only, per-domain scratch arena.

   The kernels need short-lived float buffers on every call: the
   packed-B tile of a GEMM, a conv's zero-padded sample copy, RUDY's
   per-chunk partial congestion maps.  Allocating them fresh each time made every
   training step and every RUDY evaluation pay minor-heap churn and
   major-GC pressure proportional to the scratch footprint (PR 1's
   rudy_map spent more time allocating partial maps than accumulating
   into them on small grids).

   Each domain owns a private list of slots (so borrowing never takes a
   lock and pool workers cannot contend); a slot is a float array that
   is handed out, used, and returned, and is only ever replaced by a
   bigger one.  Capacities are rounded up to a multiple of an eighth of
   the next power of two, so that nearby request sizes reuse one slot
   instead of growing a ladder of near-duplicates, while a slot wastes
   at most an eighth of its size (every pool domain that runs a
   sample's convolutions holds its own padded copies).  Steady state — e.g. the Predictor.train epoch loop
   calling the same convolution shapes every step — performs zero
   scratch allocations. *)

type slot = { mutable buf : float array; mutable in_use : bool }

(* The conv kernels borrow int buffers (tap offset tables) with exactly
   the float pool's lifecycle, so they get their own grow-only slot list
   in the same per-domain arena. *)
type islot = { mutable ibuf : int array; mutable i_in_use : bool }

type arena = {
  mutable slots : slot list;
  mutable islots : islot list;
  mutable borrows : int;  (* with_* calls served *)
  mutable grows : int;  (* calls that had to allocate or grow a slot *)
}

let key =
  Domain.DLS.new_key (fun () ->
      { slots = []; islots = []; borrows = 0; grows = 0 })

let round_capacity n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  (* within an eighth of the power of two above [n] *)
  let step = max 16 (!c / 8) in
  (n + step - 1) / step * step

(* Smallest free slot that fits, so a small request does not pin the
   big GEMM slot while a nested borrow is live. *)
let acquire arena n =
  arena.borrows <- arena.borrows + 1;
  let best = ref None in
  List.iter
    (fun s ->
      if (not s.in_use) && Array.length s.buf >= n then
        match !best with
        | Some b when Array.length b.buf <= Array.length s.buf -> ()
        | _ -> best := Some s)
    arena.slots;
  match !best with
  | Some s ->
      s.in_use <- true;
      s
  | None ->
      arena.grows <- arena.grows + 1;
      (* grow the largest free slot rather than adding one, so the
         arena converges to a few big buffers instead of accumulating
         every size ever requested *)
      let grown = ref None in
      List.iter
        (fun s ->
          if not s.in_use then
            match !grown with
            | Some b when Array.length b.buf >= Array.length s.buf -> ()
            | _ -> grown := Some s)
        arena.slots;
      let cap = round_capacity n in
      (match !grown with
      | Some s ->
          s.buf <- Array.make cap 0.;
          s.in_use <- true;
          s
      | None ->
          let s = { buf = Array.make cap 0.; in_use = true } in
          arena.slots <- s :: arena.slots;
          s)

let with_floats n f =
  if n < 0 then invalid_arg "Workspace.with_floats: negative size";
  let arena = Domain.DLS.get key in
  let s = acquire arena n in
  Fun.protect ~finally:(fun () -> s.in_use <- false) (fun () -> f s.buf)

let with_zeroed n f =
  with_floats n (fun buf ->
      Array.fill buf 0 n 0.;
      f buf)

(* Same policy as [acquire], over the int-word pool. *)
let acquire_ints arena n =
  arena.borrows <- arena.borrows + 1;
  let best = ref None in
  List.iter
    (fun s ->
      if (not s.i_in_use) && Array.length s.ibuf >= n then
        match !best with
        | Some b when Array.length b.ibuf <= Array.length s.ibuf -> ()
        | _ -> best := Some s)
    arena.islots;
  match !best with
  | Some s ->
      s.i_in_use <- true;
      s
  | None ->
      arena.grows <- arena.grows + 1;
      let grown = ref None in
      List.iter
        (fun s ->
          if not s.i_in_use then
            match !grown with
            | Some b when Array.length b.ibuf >= Array.length s.ibuf -> ()
            | _ -> grown := Some s)
        arena.islots;
      let cap = round_capacity n in
      (match !grown with
      | Some s ->
          s.ibuf <- Array.make cap 0;
          s.i_in_use <- true;
          s
      | None ->
          let s = { ibuf = Array.make cap 0; i_in_use = true } in
          arena.islots <- s :: arena.islots;
          s)

let with_ints n f =
  if n < 0 then invalid_arg "Workspace.with_ints: negative size";
  let arena = Domain.DLS.get key in
  let s = acquire_ints arena n in
  Fun.protect ~finally:(fun () -> s.i_in_use <- false) (fun () -> f s.ibuf)

let live_floats () =
  let arena = Domain.DLS.get key in
  List.fold_left (fun acc s -> acc + Array.length s.buf) 0 arena.slots

let live_scratch_bytes () =
  let arena = Domain.DLS.get key in
  (8 * live_floats ())
  + List.fold_left (fun acc s -> acc + (8 * Array.length s.ibuf)) 0 arena.islots

let borrows () = (Domain.DLS.get key).borrows
let grows () = (Domain.DLS.get key).grows

let reset () =
  let arena = Domain.DLS.get key in
  if
    List.exists (fun s -> s.in_use) arena.slots
    || List.exists (fun s -> s.i_in_use) arena.islots
  then invalid_arg "Workspace.reset: a buffer is still borrowed";
  arena.slots <- [];
  arena.islots <- [];
  arena.borrows <- 0;
  arena.grows <- 0
