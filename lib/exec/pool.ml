(* A fixed-size domain pool: long-lived workers, one work queue,
   chain submission, sequential fallback at jobs = 1.

   Memory-model notes.  Mutable batch bookkeeping ([next], [remaining],
   [slots]) is atomic; the queue head ([batch], [generation], [quit])
   is only read or written under [mutex].  Per-task result/exception
   slots are plain array cells, but each cell is written by exactly one
   domain (the one that claimed the task) and read by the submitter
   only after it has observed [remaining = 0] — an atomic read that
   happens-after every worker's decrement, which in turn happens-after
   that worker's slot write.  So the plain accesses are data-race-free
   and the submitter sees completed slots. *)

type t = { degree : int }

(* The maximum total domains we will ever hold live: the runtime caps
   domains (currently 128 recommended maximum); stay well below it and
   leave room for the main domain and for user code. *)
let max_workers = 64

let create ?(jobs = 1) () =
  if jobs < 0 then invalid_arg "Pool.create: negative jobs";
  let degree = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  if degree - 1 > max_workers then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs %d exceeds the domain budget (%d)"
         degree (max_workers + 1));
  { degree }

let jobs t = t.degree

(* ---- the shared worker machinery ---- *)

type batch = {
  n : int;
  task : int -> unit; (* exception-safe wrapper around the user task *)
  next : int Atomic.t; (* work-queue cursor: next unclaimed index *)
  remaining : int Atomic.t; (* tasks not yet finished *)
  slots : int Atomic.t; (* worker participation budget (jobs - 1) *)
}

type shared = {
  mutex : Mutex.t;
  work : Condition.t; (* a new batch was posted (or quit) *)
  done_ : Condition.t; (* some batch ran out of tasks *)
  mutable batch : batch option; (* the batch currently open for claims *)
  mutable generation : int; (* bumped once per posted batch *)
  mutable quit : bool;
  mutable workers : unit Domain.t list;
}

let shared =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    batch = None;
    generation = 0;
    quit = false;
    workers = [];
  }

let drain s b =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add b.next 1 in
    if i >= b.n then continue_ := false
    else begin
      b.task i;
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        (* last task of the batch: wake the submitter *)
        Mutex.lock s.mutex;
        Condition.broadcast s.done_;
        Mutex.unlock s.mutex
      end
    end
  done

let rec worker_loop s last_gen =
  Mutex.lock s.mutex;
  while (not s.quit) && s.generation = last_gen do
    Condition.wait s.work s.mutex
  done;
  if s.quit then Mutex.unlock s.mutex
  else begin
    let gen = s.generation and b = s.batch in
    Mutex.unlock s.mutex;
    (match b with
    | Some b when Atomic.fetch_and_add b.slots (-1) > 0 -> drain s b
    | Some _ | None -> ());
    worker_loop s gen
  end

let worker_count () =
  Mutex.lock shared.mutex;
  let n = List.length shared.workers in
  Mutex.unlock shared.mutex;
  n

let shutdown () =
  Mutex.lock shared.mutex;
  let workers = shared.workers in
  shared.workers <- [];
  shared.quit <- true;
  Condition.broadcast shared.work;
  Mutex.unlock shared.mutex;
  List.iter Domain.join workers;
  Mutex.lock shared.mutex;
  shared.quit <- false; (* allow lazy respawn after an explicit shutdown *)
  Mutex.unlock shared.mutex

let exit_hook_installed = Atomic.make false

let ensure_workers wanted =
  let wanted = min wanted max_workers in
  if
    Atomic.compare_and_set exit_hook_installed false true
    (* join workers before the runtime tears down, so no domain is left
       blocked in [Condition.wait] at exit *)
  then at_exit shutdown;
  Mutex.lock shared.mutex;
  let missing = wanted - List.length shared.workers in
  if missing > 0 then begin
    let gen = shared.generation in
    for _ = 1 to missing do
      shared.workers <-
        Domain.spawn (fun () -> worker_loop shared gen) :: shared.workers
    done
  end;
  Mutex.unlock shared.mutex

(* ---- submission ---- *)

let run_inline fns exns =
  Array.iteri
    (fun i f -> match f () with () -> () | exception e -> exns.(i) <- Some e)
    fns

let run t fns =
  let n = Array.length fns in
  let exns = Array.make n None in
  if t.degree <= 1 || n <= 1 then run_inline fns exns
  else begin
    let helpers = min (t.degree - 1) (n - 1) in
    ensure_workers helpers;
    let b =
      {
        n;
        task =
          (fun i ->
            match fns.(i) () with () -> () | exception e -> exns.(i) <- Some e);
        next = Atomic.make 0;
        remaining = Atomic.make n;
        slots = Atomic.make helpers;
      }
    in
    Mutex.lock shared.mutex;
    shared.batch <- Some b;
    shared.generation <- shared.generation + 1;
    Condition.broadcast shared.work;
    Mutex.unlock shared.mutex;
    (* the submitter is a full participant *)
    drain shared b;
    Mutex.lock shared.mutex;
    while Atomic.get b.remaining > 0 do
      Condition.wait shared.done_ shared.mutex
    done;
    shared.batch <- None;
    Mutex.unlock shared.mutex
  end;
  exns

(* ---- dependency-aware submission: independent sequential chains ----

   The replay scheduler (and any caller with per-key ordering
   constraints) has tasks that form disjoint linear dependency chains:
   within a chain the order is mandatory (e.g. one view folding its
   batches in journal order), across chains there are no edges.  A
   chain is therefore scheduled as a single claimable unit — the
   general DAG case degenerates to the work queue we already have, with
   the same skew-tolerant cursor claiming across chains. *)

let run_chains t chains =
  run t
    (Array.map
       (fun chain () ->
         (* run the chain's links in order; the first raise aborts the
            rest of this chain (its successors depend on it) and is
            reported as the chain's outcome *)
         Array.iter (fun f -> f ()) chain)
       chains)
