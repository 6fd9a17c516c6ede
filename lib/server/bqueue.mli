(** Bounded multi-producer/multi-consumer FIFO queue over
    [Mutex]/[Condition] (safe across systhreads and domains).

    dkserve's one work-queue implementation: the server's job list
    (drained by the event loop with {!try_pop}), the replies of jobs
    run on the loop, and the {!Checkpoint} background writer all use
    it.  Closing is how a consumer is stopped: {!pop} and {!try_pop}
    hand out every element admitted before {!close}, so "close, then
    drain" finishes all queued work. *)

type 'a t

val create : int -> 'a t
(** An empty queue holding at most [cap] elements. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue unless full or closed; [false] means the element was shed
    (the server's admission-control point). *)

val push : 'a t -> 'a -> unit
(** Enqueue, blocking while the queue is full — for producers that
    must never shed.  Drops the element once the queue is closed: by
    then its consumer is gone. *)

val pop : 'a t -> 'a option
(** Dequeue the oldest element, blocking while the queue is empty and
    open.  [None] only after {!close} and once every admitted element
    has been handed out. *)

val try_pop : 'a t -> 'a option
(** Dequeue the oldest element without blocking: [None] when the
    queue is empty, open or closed. *)

val close : 'a t -> unit
(** Refuse further pushes and wake every blocked producer and
    consumer.  Idempotent. *)

val length : 'a t -> int
