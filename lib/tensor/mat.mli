(** Dense row-major float matrices.

    Sized for the small fully-connected networks of the paper; the layout is
    a single flat array indexed as [row * cols + col]. *)

type t = private { rows : int; cols : int; data : float array }

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] fills cell [(r, c)] with [f r c]. *)

val of_rows : float array array -> t
(** Build from an array of equal-length rows. Non-empty input. *)

val copy : t -> t
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int

val row : t -> int -> Vec.t
(** Copy of row [r]. *)

val col : t -> int -> Vec.t
(** Copy of column [c]. *)

val mul_vec : t -> Vec.t -> Vec.t
(** [mul_vec m x] is [m * x]; [x] must have [cols] entries. *)

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec m x] is [transpose m * x]; [x] must have [rows] entries. *)

val outer : Vec.t -> Vec.t -> t
(** [outer u v] is the matrix [u * transpose v]. *)

val add_inplace : t -> t -> unit
val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] element-wise. *)

val map : (float -> float) -> t -> t
val transpose : t -> t
val approx_equal : ?eps:float -> t -> t -> bool
val to_rows : t -> float array array
val pp : Format.formatter -> t -> unit
