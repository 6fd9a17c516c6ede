external now_ns : unit -> (int[@untagged]) = "dkbench_now_ns_byte" "dkbench_now_ns"
[@@noalloc]
(** Monotonic time in nanoseconds. *)

external use_tsc : int -> bool = "dkbench_use_tsc"

let now_s () = float_of_int (now_ns ()) *. 1e-9

(* Read the time-stamp counter instead of calling clock_gettime, but
   only where the kernel itself keeps time with it (so it is invariant
   and synchronised across cores).  Call once, before any domain
   starts. *)
let init () =
  let source = "/sys/devices/system/clocksource/clocksource0/current_clocksource" in
  match In_channel.with_open_text source In_channel.input_line with
  | Some "tsc" -> ignore (use_tsc 20)
  | _ | (exception Sys_error _) -> ()
