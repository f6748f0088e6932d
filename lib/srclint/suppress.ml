(* Directive scanning is textual (compiler-libs' Parse drops comments),
   one directive per line.  The marker string is assembled at runtime
   so that srclint's own source never contains it — otherwise this
   very file would scan as a directive. *)

let marker = "srclint" ^ ":"

type parsed =
  | Not_directive
  | Allow of Rule.t * string
  | Expect of string
  | Malformed of string

(* Names an [expect] may reference: the core rules plus the two
   meta findings the driver synthesizes. *)
let meta_names = [ "unused-allow"; "bad-directive" ]
let expect_names = List.map Rule.name Rule.all @ meta_names
let is_expect_name s = List.mem s expect_names

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = if i + m > n then None else if String.sub line i m = sub then Some i else at (i + 1) in
  at 0

let words s = String.split_on_char ' ' s |> List.concat_map (String.split_on_char '\t') |> List.filter (( <> ) "")

let parse_line line =
  match find_sub line marker with
  | None -> Not_directive
  | Some i -> (
      (* A string literal opening before the marker means the marker is
         (part of) data, not a directive — docs and tests may quote the
         syntax freely.  Put real directives on their own line. *)
      match String.index_opt line '"' with
      | Some q when q < i -> Not_directive
      | _ -> (
          let rest = String.sub line (i + String.length marker) (String.length line - i - String.length marker) in
          let rest = match find_sub rest "*)" with Some j -> String.sub rest 0 j | None -> rest in
          match words rest with
          | "allow" :: rule :: reason -> (
              match Rule.of_name rule with
              | None -> Malformed (Printf.sprintf "allow names unknown rule %S" rule)
              | Some r ->
                  let reason = String.concat " " reason in
                  if reason = "" then Malformed (Printf.sprintf "allow %s carries no reason" rule)
                  else Allow (r, reason))
          | [ "allow" ] -> Malformed "allow names no rule"
          | [ "expect"; rule ] ->
              if is_expect_name rule then Expect rule
              else Malformed (Printf.sprintf "expect names unknown rule %S" rule)
          | "expect" :: _ -> Malformed "expect takes exactly one rule name"
          | kw :: _ -> Malformed (Printf.sprintf "unknown directive %S" kw)
          | [] -> Malformed "empty directive"))

let allow_comment ~rule ~reason = Printf.sprintf "(* %s allow %s %s *)" marker (Rule.name rule) reason

type scan = {
  allows : (int * Rule.t * string) list;
  expects : (int * string) list;
  malformed : (int * string) list;
}

(* A directive on line L covers findings on lines L and L+1, so it can
   sit at the end of the offending line or on its own line above. *)
let covers ~directive_line ~finding_line = finding_line = directive_line || finding_line = directive_line + 1

let scan src =
  let lines = String.split_on_char '\n' src in
  let _, allows, expects, malformed =
    List.fold_left
      (fun (ln, allows, expects, malformed) line ->
        match parse_line line with
        | Not_directive -> (ln + 1, allows, expects, malformed)
        | Allow (r, reason) -> (ln + 1, (ln, r, reason) :: allows, expects, malformed)
        | Expect rule -> (ln + 1, allows, (ln, rule) :: expects, malformed)
        | Malformed msg -> (ln + 1, allows, expects, (ln, msg) :: malformed))
      (1, [], [], [])
      lines
  in
  { allows = List.rev allows; expects = List.rev expects; malformed = List.rev malformed }
