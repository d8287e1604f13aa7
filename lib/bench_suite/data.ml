module Prng = Asipfb_util.Prng
module Value = Asipfb_exec.Value

let float_signal ~seed ~len =
  let g = Prng.create ~seed in
  Array.init len (fun _ ->
      Value.Vfloat (Prng.next_float_range g ~lo:(-1.0) ~hi:1.0))

let int_stream ~seed ~len =
  let g = Prng.create ~seed in
  Array.init len (fun _ -> Value.Vint (Prng.next_int g ~bound:256 - 128))

let image_8bit ~seed ~side =
  let g = Prng.create ~seed in
  Array.init (side * side) (fun idx ->
      let row = idx / side and col = idx mod side in
      (* Diagonal gradient, a bright disc, and noise — gives the histogram
         some shape and the edge detector something to find. *)
      let gradient = (row + col) * 255 / (2 * (side - 1)) in
      let dr = row - (side / 2) and dc = col - (side / 3) in
      let disc = if (dr * dr) + (dc * dc) < side * side / 16 then 60 else 0 in
      let noise = Prng.next_int g ~bound:31 - 15 in
      let v = gradient + disc + noise in
      Value.Vint (max 0 (min 255 v)))
