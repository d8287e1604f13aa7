(** Deterministic input-data generators matching Table 1's data column. *)

val float_signal : seed:int -> len:int -> Asipfb_exec.Value.t array
(** Random floats in [\[-1, 1)] — the "random array of N floating point
    values" inputs. *)

val int_stream : seed:int -> len:int -> Asipfb_exec.Value.t array
(** Random integers in [\[-128, 128)] — the "stream of N random integer
    values" inputs. *)

val image_8bit : seed:int -> side:int -> Asipfb_exec.Value.t array
(** A [side × side] 8-bit image (row-major ints in [\[0, 256)]) with a
    smooth gradient plus noise, so blur/edge/histogram kernels see
    realistic spatial structure rather than white noise. *)
