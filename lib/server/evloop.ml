external dk_poll : int array -> int array -> int array -> int -> int -> int = "dk_poll"

(* On Unix a file_descr is the raw int. *)
external fd_int : Unix.file_descr -> int = "%identity"
external int_fd : int -> Unix.file_descr = "%identity"

let rd = 1
let wr = 2
let err = 4

type t = {
  interest : (int, int) Hashtbl.t;  (* fd -> interest mask *)
  (* poll scratch, rebuilt from [interest] when dirty *)
  mutable dirty : bool;
  mutable pfds : int array;
  mutable pevents : int array;
  mutable prevents : int array;
  mutable pn : int;
}

let create () =
  { interest = Hashtbl.create 64; dirty = true; pfds = [||]; pevents = [||]; prevents = [||]; pn = 0 }

let add t fd interest =
  Hashtbl.replace t.interest (fd_int fd) interest;
  t.dirty <- true

let remove t fd =
  let fd = fd_int fd in
  if Hashtbl.mem t.interest fd then begin
    Hashtbl.remove t.interest fd;
    t.dirty <- true
  end

let rebuild t =
  let n = Hashtbl.length t.interest in
  if Array.length t.pfds < n then begin
    let cap = max 16 (2 * n) in
    t.pfds <- Array.make cap 0;
    t.pevents <- Array.make cap 0;
    t.prevents <- Array.make cap 0
  end;
  let i = ref 0 in
  Hashtbl.iter
    (fun fd interest ->
      t.pfds.(!i) <- fd;
      t.pevents.(!i) <- interest;
      incr i)
    t.interest;
  t.pn <- n;
  t.dirty <- false

let wait t ~timeout_ms f =
  if t.dirty then rebuild t;
  let rc = dk_poll t.pfds t.pevents t.prevents t.pn timeout_ms in
  if rc <= 0 then 0
  else begin
    for i = 0 to t.pn - 1 do
      let fd = t.pfds.(i) and r = t.prevents.(i) in
      (* An earlier callback may have removed [fd]. *)
      if r <> 0 && Hashtbl.mem t.interest fd then f (int_fd fd) r
    done;
    rc
  end
