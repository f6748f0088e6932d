type event = [ `Record of Archive.record | `Skipped of string | `End_of_archive ]
type event_fv = [ `Record of Archive.record_fv | `Skipped of string | `End_of_archive ]

type t = {
  name : string;
  next : unit -> event;
  next_fv : unit -> event_fv;
  close : unit -> unit;
}

let name t = t.name
let next t = t.next ()
let next_fv t = t.next_fv ()
let close t = t.close ()

(* Backends that only produce boxed records get the conversion shim;
   the archive reader below overrides it with a native decode. *)
let fv_of_event : event -> event_fv = function
  | `Record r -> `Record (Archive.fv_of_record r)
  | `Skipped msg -> `Skipped msg
  | `End_of_archive -> `End_of_archive

let of_reader ?(strict = false) ~name reader =
  let next () =
    if strict then match Archive.next reader with Some r -> `Record r | None -> `End_of_archive
    else Archive.try_next reader
  in
  let next_fv () =
    if strict then match Archive.next_fv reader with Some r -> `Record r | None -> `End_of_archive
    else Archive.try_next_fv reader
  in
  { name; next; next_fv; close = (fun () -> Archive.close_reader reader) }

let of_archive ?strict ?obs path =
  of_reader ?strict ~name:path (Archive.open_reader ?obs path)

let of_records ~name records =
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length records then `End_of_archive
    else begin
      let r = records.(!pos) in
      incr pos;
      `Record r
    end
  in
  let next_fv () = fv_of_event (next ()) in
  { name; next; next_fv; close = ignore }

let make ~name ~next ~close = { name; next; next_fv = (fun () -> fv_of_event (next ())); close }
let make_fv ~name ~next ~next_fv ~close = { name; next; next_fv; close }
