(* CLOCK_MONOTONIC in nanoseconds, as an unboxed int: reading it
   allocates nothing, so a span recorded around a call does not perturb
   the minor-word count measured beside it.  The clock is system-wide,
   so timestamps taken in the generator and in a forked daemon child are
   comparable. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
