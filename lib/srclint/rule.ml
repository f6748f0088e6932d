type t = Nondet_source | Hashtbl_order | Domain_capture | Exn_message | Unsafe_index | Toplevel_lazy

let all = [ Nondet_source; Hashtbl_order; Domain_capture; Exn_message; Unsafe_index; Toplevel_lazy ]

let name = function
  | Nondet_source -> "nondet-source"
  | Hashtbl_order -> "hashtbl-order"
  | Domain_capture -> "domain-capture"
  | Toplevel_lazy -> "toplevel-lazy"
  | Exn_message -> "exn-message"
  | Unsafe_index -> "unsafe-index"

let of_name s = List.find_opt (fun r -> name r = s) all

let why = function
  | Nondet_source ->
      "ambient entropy, wall-clock or scheduler state reaches a value — identical inputs could produce different \
       output"
  | Hashtbl_order ->
      "Hashtbl iteration order depends on hashing internals — a fold/iter result must be sorted before it can reach \
       emitted output"
  | Domain_capture ->
      "mutable state captured by a Domain.spawn closure with no synchronization in sight is a data race"
  | Toplevel_lazy ->
      "a top-level lazy is shared by every domain, and two domains forcing it at once raise \
       CamlinternalLazy.Undefined on OCaml 5"
  | Exn_message ->
      "exception message strings are not a stable interface — match on the exception family (typed constructor) \
       instead"
  | Unsafe_index ->
      "unsafe_get/unsafe_set skip bounds checking — sanctioned only in audited numeric kernels whose loop bounds are \
       validated up front and re-checkable via a debug flag"
