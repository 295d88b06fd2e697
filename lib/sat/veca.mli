(** Growable array (amortised O(1) push), used for the solver's trail and
    clause id lists. OCaml 5.1 has no stdlib Dynarray yet. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the last element; raises [Invalid_argument] when
    empty. *)

val clear : 'a t -> unit
(** Logical clear; capacity is retained. *)

val shrink : 'a t -> int -> unit
(** [shrink t n] truncates to the first [n] elements ([n <= length]). *)

val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps elements satisfying the predicate, preserving order. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
