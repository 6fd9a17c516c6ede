(** Flat [int array] utilities shared by the CSR graph core and the
    array-extent index layer: in-place range sort, binary search over
    sorted runs, and linear-time merges of sorted arrays.

    Everything here works on arrays sorted in increasing order and
    allocates only the result array (no lists, no closures captured in
    loops). *)

val sort_range : int array -> lo:int -> hi:int -> unit
(** Sort [a.(lo) .. a.(hi - 1)] in place, increasing.  Insertion sort
    below a small cutoff, median-of-three quicksort above it; O(1)
    auxiliary space. *)

val dedup_range : int array -> lo:int -> hi:int -> int
(** Compact consecutive duplicates of the sorted run
    [a.(lo) .. a.(hi - 1)] towards [lo]; returns the number of distinct
    values now occupying [a.(lo) ..]. *)

val mem_range : int array -> lo:int -> hi:int -> int -> bool
(** Search for a value in the sorted run [a.(lo) .. a.(hi - 1)]:
    linear scan on short runs, binary search otherwise.  [lo, hi) must
    be a valid range of [a] — short runs are read unchecked. *)

val of_list : int list -> int array
(** Array of the list, sorted increasing (duplicates kept). *)

val merge_many : int array list -> int array
(** Merge sorted arrays into one sorted array (duplicates kept):
    pairwise tournament, O(N log k) for N total elements across k
    arrays. *)

val to_list : int array -> int list
