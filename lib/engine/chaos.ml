module Graph = Symnet_graph.Graph
module Prng = Symnet_prng.Prng

type kind = Kill_node | Kill_edge | Corrupt | Crash of { downtime : int }

type target =
  | Uniform
  | High_degree
  | Critical of (round:int -> int list)

type process =
  | Bernoulli of { p : float; kind : kind; target : target }
  | Burst of { at : int; width : int; count : int; kind : kind; target : target }
  | Periodic of { every : int; phase : int; kind : kind; target : target }

type t = { seed : int; processes : process list; link : Link.spec }

let create ~seed ?(link = Link.default_spec) processes =
  { seed; processes; link }

let seed t = t.seed
let processes t = t.processes
let link t = t.link

(* --- victim selection ------------------------------------------------- *)

(* Everything below is a pure function of (seed, process index, round) and
   the graph's current liveness: the stream consulted for a draw is a
   keyed split of a keyed split of a fresh generator, never an advancing
   shared stream.  That is the whole determinism story — the same chaos
   value fires the same faults at the same rounds whatever the domain
   count, and a rollback that restores the graph replays them exactly. *)

(* The draw [Prng.choose] would make over the ascending array of live
   nodes, resolved by rank through the graph's liveness index instead
   of materialising that array: O(log n) per pick, not O(n). *)
let pick_uniform rng g =
  match Graph.node_count g with
  | 0 -> None
  | live -> Some (Graph.nth_live_node g (Prng.int rng live))

let pick_node rng g ~round = function
  | Uniform -> pick_uniform rng g
  | High_degree ->
      (* argmax of the cached live degree; lowest id wins ties so the
         choice is schedule-independent *)
      let best = ref (-1) and best_deg = ref (-1) in
      Graph.iter_nodes g (fun v ->
          let d = Graph.degree g v in
          if d > !best_deg then begin
            best := v;
            best_deg := d
          end);
      if !best < 0 then None else Some !best
  | Critical f -> (
      let live =
        List.filter (Graph.is_live_node g) (f ~round) |> Array.of_list
      in
      match Array.length live with
      | 0 -> pick_uniform rng g (* every critical node already dead *)
      | _ -> Some (Prng.choose rng live))

let pick_incident_edge rng g v =
  let inc = Array.of_list (Graph.incident g v) in
  if Array.length inc = 0 then None else Some (Prng.choose rng inc)

let action_of rng g ~round ~kind ~target : Fault.action option =
  match pick_node rng g ~round target with
  | None -> None
  | Some v -> (
      match kind with
      | Kill_node -> Some (Fault.Kill_node v)
      | Corrupt -> Some (Fault.Corrupt_state v)
      | Crash { downtime } -> Some (Fault.Crash_restart { node = v; downtime })
      | Kill_edge -> (
          match pick_incident_edge rng g v with
          | None -> None
          | Some e -> Some (Fault.Kill_edge (e.Graph.u, e.Graph.v))))

(* --- firing ----------------------------------------------------------- *)

let fires ~round = function
  | Bernoulli _ -> true (* the Bernoulli draw itself happens below *)
  | Burst { at; width; _ } -> round >= at && round < at + width
  | Periodic { every; phase; _ } ->
      every > 0 && round >= 1 && (round - phase) mod every = 0

let actions_due t ~round g =
  if round < 1 then []
  else begin
    let base = Prng.create ~seed:t.seed in
    let acc = ref [] in
    List.iteri
      (fun i p ->
        if fires ~round p then begin
          let rng = Prng.split_key (Prng.split_key base ~key:(i + 1)) ~key:round in
          let shoot ~kind ~target =
            match action_of rng g ~round ~kind ~target with
            | Some a -> acc := a :: !acc
            | None -> ()
          in
          match p with
          | Bernoulli { p; kind; target } ->
              if Prng.bernoulli rng ~p then shoot ~kind ~target
          | Burst { count; kind; target; _ } ->
              for _ = 1 to count do
                shoot ~kind ~target
              done
          | Periodic { kind; target; _ } -> shoot ~kind ~target
        end)
      t.processes;
    List.rev !acc
  end

let horizon t =
  List.fold_left
    (fun acc p ->
      match (acc, p) with
      | None, _ | _, (Bernoulli _ | Periodic _) -> None
      | Some h, Burst { at; width; _ } -> Some (max h (at + width - 1)))
    (Some 0) t.processes

let exhausted t ~round =
  match horizon t with None -> false | Some h -> round >= h

(* --- spec parsing ----------------------------------------------------- *)

(* PROC(;PROC)* with PROC = name(:key=value)*, e.g.
     burst:at=5:count=3:kind=corrupt;bernoulli:p=0.02:kind=crash:downtime=2
   Names: bernoulli, burst, periodic.  Common keys: kind (kill_node,
   kill_edge, corrupt, crash), downtime, target (uniform, degree,
   critical — the latter only when the caller supplies a χ-set
   provider). *)

let grammar =
  "PROC(;PROC)* with PROC one of bernoulli[:p=<float>], \
   burst[:at=<int>][:width=<int>][:count=<int>], \
   periodic[:every=<int>][:phase=<int>], or a link process (" ^ Link.grammar
  ^ "); common keys: kind=<kill_node|kill_edge|corrupt|crash>, \
     downtime=<int>, target=<uniform|degree|critical>"

let ( let* ) = Result.bind

let parse_kv part =
  match String.index_opt part '=' with
  | None -> Error (Printf.sprintf "chaos spec: expected key=value, got %S" part)
  | Some i ->
      Ok
        ( String.sub part 0 i,
          String.sub part (i + 1) (String.length part - i - 1) )

let parse_int k v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "chaos spec: %s wants an integer, got %S" k v)

let parse_float k v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "chaos spec: %s wants a number, got %S" k v)

let parse_proc ?critical s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error "chaos spec: empty process"
  | name :: kvs ->
      let* kvs =
        List.fold_left
          (fun acc part ->
            let* acc = acc in
            let* kv = parse_kv part in
            Ok (kv :: acc))
          (Ok []) kvs
      in
      let find k = List.assoc_opt k kvs in
      let int_of k default =
        match find k with None -> Ok default | Some v -> parse_int k v
      in
      let float_of k default =
        match find k with None -> Ok default | Some v -> parse_float k v
      in
      let* downtime = int_of "downtime" 2 in
      let* kind =
        match Option.value ~default:"corrupt" (find "kind") with
        | "kill_node" -> Ok Kill_node
        | "kill_edge" -> Ok Kill_edge
        | "corrupt" -> Ok Corrupt
        | "crash" -> Ok (Crash { downtime })
        | k -> Error (Printf.sprintf "chaos spec: unknown kind %S" k)
      in
      let* target =
        match Option.value ~default:"uniform" (find "target") with
        | "uniform" -> Ok Uniform
        | "degree" -> Ok High_degree
        | "critical" -> (
            match critical with
            | Some f -> Ok (Critical f)
            | None ->
                Error
                  "chaos spec: target=critical needs an algorithm-supplied \
                   critical set (this command provides none)")
        | t -> Error (Printf.sprintf "chaos spec: unknown target %S" t)
      in
      let known =
        [ "p"; "at"; "width"; "count"; "every"; "phase"; "kind"; "downtime"; "target" ]
      in
      let* () =
        match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
        | Some (k, _) ->
            Error
              (Printf.sprintf
                 "chaos spec: unknown key %S (valid keys: %s; grammar: %s)" k
                 (String.concat ", " known) grammar)
        | None -> Ok ()
      in
      match name with
      | "bernoulli" ->
          let* p = float_of "p" 0.05 in
          Ok (Bernoulli { p; kind; target })
      | "burst" ->
          let* at = int_of "at" 1 in
          let* width = int_of "width" 1 in
          let* count = int_of "count" 1 in
          Ok (Burst { at; width; count; kind; target })
      | "periodic" ->
          let* every = int_of "every" 10 in
          let* phase = int_of "phase" 0 in
          Ok (Periodic { every; phase; kind; target })
      | n ->
          Error
            (Printf.sprintf
               "chaos spec: unknown process %S (valid: bernoulli, burst, \
                periodic, link=...; grammar: %s)"
               n grammar)

let is_link_part s =
  String.length s >= 5 && String.sub s 0 5 = "link="

let of_spec ~seed ?critical spec =
  let parts =
    String.split_on_char ';' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then
    Error (Printf.sprintf "chaos spec: no processes (grammar: %s)" grammar)
  else
    let* processes, link =
      List.fold_left
        (fun acc s ->
          let* procs, link = acc in
          if is_link_part s then
            let* seg = Link.spec_of_string s in
            Ok (procs, Link.merge_spec link seg)
          else
            let* p = parse_proc ?critical s in
            Ok (p :: procs, link))
        (Ok ([], Link.default_spec))
        parts
    in
    Ok { seed; processes = List.rev processes; link }

(* --- spec printing ----------------------------------------------------- *)

(* Canonical serialization: every key explicit, so [spec_of] is a fixed
   point of [of_spec ∘ spec_of] at the string level (a [Critical] target
   prints as [target=critical] and needs the same [?critical] provider
   to parse back — the closure itself cannot round-trip). *)

let kind_kvs = function
  | Kill_node -> ":kind=kill_node"
  | Kill_edge -> ":kind=kill_edge"
  | Corrupt -> ":kind=corrupt"
  | Crash { downtime } -> Printf.sprintf ":kind=crash:downtime=%d" downtime

let target_kv = function
  | Uniform -> ":target=uniform"
  | High_degree -> ":target=degree"
  | Critical _ -> ":target=critical"

let string_of_process p =
  match p with
  | Bernoulli { p; kind; target } ->
      Printf.sprintf "bernoulli:p=%g%s%s" p (kind_kvs kind) (target_kv target)
  | Burst { at; width; count; kind; target } ->
      Printf.sprintf "burst:at=%d:width=%d:count=%d%s%s" at width count
        (kind_kvs kind) (target_kv target)
  | Periodic { every; phase; kind; target } ->
      Printf.sprintf "periodic:every=%d:phase=%d%s%s" every phase
        (kind_kvs kind) (target_kv target)

let spec_of t =
  let procs = List.map string_of_process t.processes in
  let link = Link.string_of_spec t.link in
  String.concat ";" (procs @ if link = "" then [] else [ link ])
