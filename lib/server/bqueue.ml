type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  notfull : Condition.t;
  q : 'a Queue.t;
  cap : int;
  mutable closed : bool;
}

let create cap =
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    notfull = Condition.create ();
    q = Queue.create ();
    cap;
    closed = false;
  }

let try_push t x =
  Mutex.lock t.mu;
  let ok = (not t.closed) && Queue.length t.q < t.cap in
  if ok then begin
    Queue.push x t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mu;
  ok

let push t x =
  Mutex.lock t.mu;
  while (not t.closed) && Queue.length t.q >= t.cap do
    Condition.wait t.notfull t.mu
  done;
  if not t.closed then begin
    Queue.push x t.q;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mu

let pop t =
  Mutex.lock t.mu;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.mu
  done;
  let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Condition.signal t.notfull;
  Mutex.unlock t.mu;
  r

let try_pop t =
  Mutex.lock t.mu;
  let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  if r <> None then Condition.signal t.notfull;
  Mutex.unlock t.mu;
  r

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Condition.broadcast t.notfull;
  Mutex.unlock t.mu

let length t =
  Mutex.lock t.mu;
  let r = Queue.length t.q in
  Mutex.unlock t.mu;
  r
