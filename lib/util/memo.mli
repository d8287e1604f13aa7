(** A keyed memo: compute each key once, then reuse it.

    An entry is either {e running} — its first asker, the leader, is
    computing it and every overlapping asker waits for that value — or
    {e done}, when later askers read it.  How long done values stay is
    the memo's [capacity]: all of them, the most recently used [n], or
    none (plain single-flight: only overlapping askers share a value).

    A raise is never kept: the entry is dropped, every waiting asker
    re-raises the leader's exception with the leader's backtrace, and
    the next asker computes afresh.

    Keys are compared structurally.  Thread-safe across domains: one
    lock per memo, and the computation runs outside it.  A computation
    must not ask its own memo for its own key. *)

type ('k, 'a) t

type status =
  | Hit  (** Read a done value. *)
  | Joined  (** Waited for an overlapping leader's value. *)
  | Led  (** Ran the computation. *)

val create : ?capacity:int -> unit -> ('k, 'a) t
(** Without [capacity] every done value is kept; with [n] the [n] most
    recently used are (a value inserted past it evicts the least
    recently used one); [0] keeps none. *)

val find_or_run : ('k, 'a) t -> key:'k -> (unit -> 'a) -> 'a * status
(** [find_or_run t ~key f]: [key]'s value and how this asker obtained
    it, running [f] only when [key] is neither done nor running. *)

val get : ('k, 'a) t -> key:'k -> (unit -> 'a) -> 'a
(** The value of {!find_or_run}, for askers that do not need its
    status. *)

val size : ('k, 'a) t -> int
(** Done values held now. *)

val clear : ('k, 'a) t -> unit
(** Drop every done value; running computations are left to finish. *)

type stats = { hits : int; joined : int; led : int }

val stats : ('k, 'a) t -> stats
(** How many asks so far obtained their value each way. *)

val reset_stats : ('k, 'a) t -> unit
