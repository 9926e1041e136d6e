(* In-memory spans recorded around the benchmark's own calls into the
   program's public entry points, plus spans derived from the phase timers
   of the [Ilp.Stats] records those calls return.

   Recording is off except during the traced pass; when off, [run] is a
   plain call.  Spans are kept in memory and written out once, when the
   benchmark ends. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root *)
  name : string;
  layer : string;
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let on = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with p :: _ -> p | [] -> -1

let add ~parent ~layer ~name ~start ~stop =
  let id = fresh () in
  spans := { id; parent; name; layer; start; stop } :: !spans;
  id

(* [run ~layer name f] times [f ()] as a span nested under the innermost
   open span and returns the span's id with the result ([-1] when
   recording is off), so callers can attach derived children to it. *)
let run ~layer name f =
  if not !on then (f (), -1)
  else begin
    let id = fresh () and parent = current () in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      spans := { id; parent; name; layer; start; stop } :: !spans
    in
    match f () with
    | v ->
        finish ();
        (v, id)
    | exception e ->
        finish ();
        raise e
  end

let run_ ~layer name f = fst (run ~layer name f)

let dur s = s.stop -. s.start

(* Self time per layer: a span's duration minus its children's. *)
let self_by_layer () =
  let child_sum = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)))
    !spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Float.max 0.0
          (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id))
      in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    !spans;
  by_layer

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* A finite float printed with every digit it carries. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      Printf.bprintf b
        "{\"id\": %d, \"parent\": %d, \"name\": %s, \"layer\": %s, \"start\": %s, \"end\": %s}"
        s.id s.parent (json_string s.name) (json_string s.layer)
        (json_float s.start) (json_float s.stop))
    (List.sort (fun a b -> compare a.id b.id) !spans);
  Buffer.add_string b "]";
  Buffer.contents b
