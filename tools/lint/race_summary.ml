(* glassdb-racecheck phase 1: per-module summaries.

   Like glassdb-lint, the pass parses sources with compiler-libs and works
   on the Parsetree alone — no type information — so every judgment is
   syntactic with documented approximations (DESIGN.md §4i).  For each
   module it extracts:

   - *mutable state roots*: module-level [let]s bound to a mutable
     constructor ([ref], [Hashtbl.create], [Buffer.create], arrays,
     queues, a record literal with mutable fields, [Atomic.make],
     [Domain.DLS.new_key]), plus record *fields* that are declared
     [mutable] or hold a mutable container.  Field roots are keyed by
     field name (".field"), because a field access site cannot be
     type-resolved syntactically; name collisions merge, which is
     conservative for protection checking.
   - *lock names*: [Pool.Lock.create ~name:"N"] sites, resolved through
     the [let] binding or record field they initialize, so a later
     [with_lock that_binding] / [with_lock r.that_field] recovers "N".
   - *events*: every identifier use (Call), root access (Access, read or
     write) and lock acquisition (Acquire), each annotated with the
     enclosing top-level binding, whether the site is syntactically
     inside a pool-task closure (an argument of [Pool.parallel_map]),
     and the lock names syntactically held.

   Phase 2 (race_callgraph + racecheck_engine) stitches the summaries
   into a whole-library call graph and checks rules R001–R004. *)

type pos = { px_line : int; px_col : int; px_off : int }

let pos_of (loc : Location.t) =
  { px_line = loc.loc_start.pos_lnum;
    px_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol + 1;
    px_off = loc.loc_start.pos_cnum }

type access_kind = Read | Write

type root_kind =
  | Plain   (* needs a lock when shared *)
  | Atomic  (* protected by construction *)
  | Dls     (* per-domain by construction *)

type root = {
  r_id : string;      (* "Module.name" for lets, ".field" for record fields *)
  r_kind : root_kind;
  r_lockful : bool;   (* field of a record that also carries a Pool.Lock.lock *)
  r_file : string;
  r_pos : pos;
}

type ekind =
  | Call of string                  (* dotted identifier in use position *)
  | Access of string * access_kind  (* root id *)
  | Acquire of string               (* named lock taken here via with_lock *)

type event = {
  e_fn : string;          (* enclosing top-level binding, "Module.name" *)
  e_in_task : bool;       (* inside a pool-task closure *)
  e_locks : string list;  (* lock names syntactically held, innermost first *)
  e_pos : pos;
  e_kind : ekind;
}

type t = {
  m_name : string;
  m_file : string;           (* shown (repo-relative) path *)
  m_roots : root list;
  m_events : event list;
  m_defined : string list;   (* top-level value names *)
  m_exported : string list option;  (* .mli val names; None = no .mli *)
  m_allows : (int * int * string) list;  (* allow regions, char offsets *)
}

(* --- identifier helpers --- *)

let dotted lid = String.concat "." (Longident.flatten lid)

let last_component s =
  match String.rindex_opt s '.' with
  | None -> s
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)

(* "A.B.f" -> Some ("B", "f"); "f" -> None *)
let last_two s =
  match String.rindex_opt s '.' with
  | None -> None
  | Some i ->
    let f = String.sub s (i + 1) (String.length s - i - 1) in
    let head = String.sub s 0 i in
    let m = last_component head in
    Some (m, f)

let with_lock_idents =
  [ "Pool.Lock.with_lock"; "Lock.with_lock"; "Glassdb_util.Pool.Lock.with_lock" ]

let lock_create_idents =
  [ "Pool.Lock.create"; "Lock.create"; "Glassdb_util.Pool.Lock.create" ]

let submit_idents = [ "Pool.parallel_map"; "Glassdb_util.Pool.parallel_map" ]

(* Constructors whose result is module-level mutable state when bound at
   the top level. *)
let mutable_ctor_idents =
  [ "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Array.make"; "Array.init"; "Array.create_float"; "Bytes.create";
    "Bytes.make"; "Dynarray.create" ]

(* Applying one of these to a root mutates it (first-position argument). *)
let mutator_idents =
  [ ":="; "incr"; "decr";
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_subbytes"; "Buffer.add_substring"; "Buffer.add_buffer";
    "Buffer.clear"; "Buffer.reset"; "Buffer.truncate";
    "Queue.add"; "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.take_opt";
    "Queue.clear"; "Queue.transfer";
    "Stack.push"; "Stack.pop"; "Stack.clear";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.sort";
    "Bytes.set"; "Bytes.fill"; "Bytes.blit" ]

(* Record-field types that make an (even non-[mutable]) field a mutable
   container root; matched on the last components of the type path. *)
let container_type_suffixes =
  [ "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "Dynarray.t"; "array";
    "ref"; "Bytes.t" ]

let lock_type_suffixes = [ "Pool.Lock.lock"; "Lock.lock" ]
let atomic_type_suffixes = [ "Atomic.t" ]

let suffix_matches suffixes name =
  List.exists
    (fun suf ->
      String.equal name suf
      || (let ls = String.length suf and ln = String.length name in
          ln > ls
          && String.equal (String.sub name (ln - ls) ls) suf
          && name.[ln - ls - 1] = '.'))
    suffixes

(* --- parsing --- *)

type parsed = {
  p_name : string;  (* module name from the file's basename *)
  p_file : string;  (* shown path *)
  p_ast : Parsetree.structure;
}

let module_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let parse_module ~shown src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf shown;
  match Parse.implementation lexbuf with
  | exception _ -> None
  | ast -> Some { p_name = module_name_of_file shown; p_file = shown; p_ast = ast }

let parse_interface src =
  let lexbuf = Lexing.from_string src in
  match Parse.interface lexbuf with
  | exception _ -> None
  | sg ->
    Some
      (List.filter_map
         (fun (it : Parsetree.signature_item) ->
           match it.psig_desc with
           | Psig_value vd -> Some vd.pval_name.txt
           | _ -> None)
         sg)

(* --- the shared environment (built from every module before events) --- *)

type env = {
  (* "Module.binding" -> lock name, for let-bound locks *)
  lock_bindings : (string, string) Hashtbl.t;
  (* record field name -> lock name, for field-held locks *)
  lock_fields : (string, string) Hashtbl.t;
  (* "Module.name" -> root, for let-bound roots *)
  let_roots : (string, root) Hashtbl.t;
  (* ".Module.field" -> root, for record-field roots.  Field roots are
     per declaring module; an access site resolves to its own module's
     declaration when there is one, else to every declaring module
     (conservative for undeclared-but-accessed fields). *)
  field_roots : (string, root) Hashtbl.t;
  (* field name -> declaring module names *)
  field_owners : (string, string list) Hashtbl.t;
  (* modules in the analyzed library *)
  module_names : (string, unit) Hashtbl.t;
  mutable root_list : root list;  (* insertion order, deduped *)
}

let empty_env () =
  { lock_bindings = Hashtbl.create 16;
    lock_fields = Hashtbl.create 16;
    let_roots = Hashtbl.create 32;
    field_roots = Hashtbl.create 32;
    field_owners = Hashtbl.create 32;
    module_names = Hashtbl.create 16;
    root_list = [] }

let add_root env key tbl root =
  match Hashtbl.find_opt tbl key with
  | Some prev ->
    (* Re-declarations merge; Plain (needs a lock) dominates, and
       lock-association is sticky. *)
    let kind = if prev.r_kind = Plain || root.r_kind = Plain then Plain
      else prev.r_kind
    in
    Hashtbl.replace tbl key
      { prev with r_kind = kind; r_lockful = prev.r_lockful || root.r_lockful }
  | None ->
    Hashtbl.replace tbl key root;
    env.root_list <- root :: env.root_list

(* [Pool.Lock.create ?name ()] application: Some lock_name *)
let lock_create_name ~where (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when List.mem (dotted txt) lock_create_idents ->
    let name =
      List.find_map
        (fun (lbl, (a : Parsetree.expression)) ->
          match (lbl, a.pexp_desc) with
          | Asttypes.Labelled "name", Pexp_constant (Pconst_string (s, _, _)) ->
            Some s
          | _ -> None)
        args
    in
    Some (match name with Some n -> n | None -> "<anon:" ^ where ^ ">")
  | _ -> None

let binding_name (vb : Parsetree.value_binding) =
  let rec of_pat (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> Some (Option.value ~default:"_" (of_pat p))
    | _ -> None
  in
  of_pat vb.pvb_pat

(* Does this expression construct module-level mutable state?  Classify
   through constraints and (for records) the module's known mutable
   fields. *)
let rec classify_ctor ~mutable_fields (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let name = dotted txt in
    if List.mem name mutable_ctor_idents then Some Plain
    else if String.equal name "Atomic.make" then Some Atomic
    else if String.equal name "Domain.DLS.new_key" then Some Dls
    else if
      (* Glassdb_util.Scratch wraps Domain.DLS: scratch slots are
         per-domain by construction (the R001 task-local tier). *)
      match last_two name with
      | Some ("Scratch", "create") -> true
      | _ -> false
    then Some Dls
    else None
  | Pexp_record (fields, _) ->
    if
      List.exists
        (fun ((lid : Longident.t Asttypes.loc), _) ->
          List.mem (last_component (dotted lid.txt)) mutable_fields)
        fields
    then Some Plain
    else None
  | Pexp_array (_ :: _) -> Some Plain
  | Pexp_constraint (e, _) -> classify_ctor ~mutable_fields e
  | _ -> None

(* Pre-scan one parsed module into the shared environment: type
   declarations (field roots, lock-carrying records), let-bound roots and
   lock bindings, record-field lock names. *)
let prescan env (pm : parsed) =
  Hashtbl.replace env.module_names pm.p_name ();
  (* Mutable field names declared by this module (for record-literal root
     classification below). *)
  let mutable_fields = ref [] in
  let field_decls = ref [] in  (* (field, kind, lockful_record, pos) *)
  let type_iter =
    let open Ast_iterator in
    let type_declaration it (td : Parsetree.type_declaration) =
      (match td.ptype_kind with
       | Ptype_record labels ->
         let lockful =
           List.exists
             (fun (ld : Parsetree.label_declaration) ->
               match ld.pld_type.ptyp_desc with
               | Ptyp_constr ({ txt; _ }, _) ->
                 suffix_matches lock_type_suffixes (dotted txt)
               | _ -> false)
             labels
         in
         List.iter
           (fun (ld : Parsetree.label_declaration) ->
             let type_name =
               match ld.pld_type.ptyp_desc with
               | Ptyp_constr ({ txt; _ }, _) -> dotted txt
               | _ -> ""
             in
             if suffix_matches lock_type_suffixes type_name then ()
             else begin
               let kind =
                 if suffix_matches atomic_type_suffixes type_name then
                   Some Atomic
                 else if ld.pld_mutable = Asttypes.Mutable then Some Plain
                 else if suffix_matches container_type_suffixes type_name then
                   Some Plain
                 else None
               in
               match kind with
               | Some k ->
                 if ld.pld_mutable = Asttypes.Mutable then
                   mutable_fields := ld.pld_name.txt :: !mutable_fields;
                 field_decls :=
                   (ld.pld_name.txt, k, lockful, pos_of ld.pld_loc)
                   :: !field_decls
               | None -> ()
             end)
           labels
       | _ -> ());
      default_iterator.type_declaration it td
    in
    { default_iterator with type_declaration }
  in
  type_iter.structure type_iter pm.p_ast;
  List.iter
    (fun (field, kind, lockful, fpos) ->
      let id = "." ^ pm.p_name ^ "." ^ field in
      add_root env id env.field_roots
        { r_id = id; r_kind = kind; r_lockful = lockful;
          r_file = pm.p_file; r_pos = fpos };
      let owners =
        match Hashtbl.find_opt env.field_owners field with
        | Some l -> l
        | None -> []
      in
      if not (List.mem pm.p_name owners) then
        Hashtbl.replace env.field_owners field (owners @ [ pm.p_name ]))
    (List.rev !field_decls);
  (* Lock names held in record fields: walk every record expression. *)
  let expr_iter =
    let open Ast_iterator in
    let expr it (e : Parsetree.expression) =
      (match e.pexp_desc with
       | Pexp_record (fields, _) ->
         List.iter
           (fun ((lid : Longident.t Asttypes.loc), (v : Parsetree.expression)) ->
             let field = last_component (dotted lid.txt) in
             match lock_create_name ~where:("." ^ field) v with
             | Some name -> Hashtbl.replace env.lock_fields field name
             | None -> ())
           fields
       | Pexp_let (_, vbs, _) ->
         (* Local lock bindings, e.g. [let l = Pool.Lock.create ~name ()]
            inside a function; keyed like top-level ones. *)
         List.iter
           (fun (vb : Parsetree.value_binding) ->
             match binding_name vb with
             | Some n ->
               (match
                  lock_create_name ~where:(pm.p_name ^ "." ^ n) vb.pvb_expr
                with
                | Some name ->
                  Hashtbl.replace env.lock_bindings (pm.p_name ^ "." ^ n) name
                | None -> ())
             | None -> ())
           vbs
       | _ -> ());
      default_iterator.expr it e
    in
    { default_iterator with expr }
  in
  expr_iter.structure expr_iter pm.p_ast;
  (* Top-level bindings: roots and lock bindings. *)
  List.iter
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match binding_name vb with
            | None -> ()
            | Some n ->
              let qual = pm.p_name ^ "." ^ n in
              (match lock_create_name ~where:qual vb.pvb_expr with
               | Some name -> Hashtbl.replace env.lock_bindings qual name
               | None ->
                 (match
                    classify_ctor ~mutable_fields:!mutable_fields vb.pvb_expr
                  with
                  | Some kind ->
                    add_root env qual env.let_roots
                      { r_id = qual; r_kind = kind; r_lockful = false;
                        r_file = pm.p_file; r_pos = pos_of vb.pvb_loc }
                  | None -> ())))
          vbs
      | _ -> ())
    pm.p_ast

(* --- event extraction --- *)

type ctx = {
  env : env;
  c_module : string;
  mutable c_fn : string;
  mutable c_in_task : bool;
  mutable c_locks : string list;
  mutable c_events : event list;
  mutable c_allows : (int * int * string) list;
}

let emit ctx loc kind =
  ctx.c_events <-
    { e_fn = ctx.c_fn; e_in_task = ctx.c_in_task; e_locks = ctx.c_locks;
      e_pos = pos_of loc; e_kind = kind }
    :: ctx.c_events

(* Root ids a tracked field access resolves to: the accessing module's
   own declaration when it has one, else every declaring module. *)
let field_refs ctx field =
  match Hashtbl.find_opt ctx.env.field_owners field with
  | None -> []
  | Some owners ->
    if List.mem ctx.c_module owners then [ "." ^ ctx.c_module ^ "." ^ field ]
    else List.map (fun m -> "." ^ m ^ "." ^ field) owners

(* Resolve an expression to root ids, if it denotes any: a (possibly
   qualified) identifier bound to a let-root, or an access to a tracked
   record field. *)
let root_refs ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let name = dotted txt in
    let candidate =
      match last_two name with
      | None -> ctx.c_module ^ "." ^ name
      | Some (m, f) -> m ^ "." ^ f
    in
    if Hashtbl.mem ctx.env.let_roots candidate then [ candidate ] else []
  | Pexp_field (_, { txt; _ }) -> field_refs ctx (last_component (dotted txt))
  | _ -> []

(* Name of the lock denoted by a with_lock first argument. *)
let lock_name_of ctx (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let name = dotted txt in
    let key =
      match last_two name with
      | None -> ctx.c_module ^ "." ^ name
      | Some (m, f) -> m ^ "." ^ f
    in
    (match Hashtbl.find_opt ctx.env.lock_bindings key with
     | Some n -> n
     | None -> "?")
  | Pexp_field (_, { txt; _ }) ->
    (match
       Hashtbl.find_opt ctx.env.lock_fields (last_component (dotted txt))
     with
     | Some n -> n
     | None -> "?")
  | _ -> "?"

let allow_attr_name = "glassdb.lint.allow"

let rules_of_payload (payload : Parsetree.payload) =
  let rec of_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
    | Pexp_tuple es -> List.concat_map of_expr es
    | _ -> []
  in
  match payload with
  | PStr items ->
    List.concat_map
      (fun (it : Parsetree.structure_item) ->
        match it.pstr_desc with
        | Pstr_eval (e, _) -> of_expr e
        | _ -> [])
      items
  | _ -> []

let allows_of_attrs (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt allow_attr_name then
        rules_of_payload a.attr_payload
      else [])
    attrs

let add_allow ctx (loc : Location.t) ~to_eof rules =
  let stop = if to_eof then max_int else loc.loc_end.pos_cnum in
  List.iter
    (fun r -> ctx.c_allows <- (loc.loc_start.pos_cnum, stop, r) :: ctx.c_allows)
    rules

let iterator ctx =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match allows_of_attrs e.pexp_attributes with
     | [] -> ()
     | rs -> add_allow ctx e.pexp_loc ~to_eof:false rs);
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
      let name = dotted txt in
      (match root_refs ctx e with
       | [] -> emit ctx loc (Call name)
       | rids -> List.iter (fun rid -> emit ctx loc (Access (rid, Read))) rids)
    | Pexp_field (inner, { txt = _; loc }) ->
      List.iter
        (fun rid -> emit ctx loc (Access (rid, Read)))
        (root_refs ctx e);
      it.expr it inner
    | Pexp_setfield (inner, { txt; loc }, v) ->
      List.iter
        (fun rid -> emit ctx loc (Access (rid, Write)))
        (field_refs ctx (last_component (dotted txt)));
      (* Writing a field of a let-root record is a write to the root. *)
      (match root_refs ctx inner with
       | [] -> it.expr it inner
       | rids ->
         List.iter (fun rid -> emit ctx loc (Access (rid, Write))) rids);
      it.expr it v
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc = hloc }; _ }, args) ->
      let head = dotted txt in
      if List.mem head with_lock_idents then begin
        emit ctx hloc (Call head);
        match List.filter (fun (l, _) -> l = Asttypes.Nolabel) args with
        | (_, lockexpr) :: body ->
          let lname = lock_name_of ctx lockexpr in
          emit ctx hloc (Acquire lname);
          it.expr it lockexpr;
          let saved = ctx.c_locks in
          ctx.c_locks <- lname :: saved;
          List.iter (fun (_, b) -> it.expr it b) body;
          ctx.c_locks <- saved
        | [] -> ()
      end
      else if List.mem head submit_idents then begin
        emit ctx hloc (Call head);
        let saved = ctx.c_in_task in
        ctx.c_in_task <- true;
        List.iter (fun (_, a) -> it.expr it a) args;
        ctx.c_in_task <- saved
      end
      else begin
        emit ctx hloc (Call head);
        if List.mem head mutator_idents then
          List.iter
            (fun (_, (a : Parsetree.expression)) ->
              List.iter
                (fun rid -> emit ctx a.pexp_loc (Access (rid, Write)))
                (root_refs ctx a))
            args;
        List.iter (fun (_, a) -> it.expr it a) args
      end
    | _ -> default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    (match allows_of_attrs vb.pvb_attributes with
     | [] -> ()
     | rs -> add_allow ctx vb.pvb_loc ~to_eof:false rs);
    default_iterator.value_binding it vb
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_attribute a when String.equal a.attr_name.txt allow_attr_name ->
      add_allow ctx si.pstr_loc ~to_eof:true (rules_of_payload a.attr_payload)
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          (match allows_of_attrs vb.pvb_attributes with
           | [] -> ()
           | rs -> add_allow ctx vb.pvb_loc ~to_eof:false rs);
          let saved = ctx.c_fn in
          ctx.c_fn <-
            ctx.c_module ^ "."
            ^ (match binding_name vb with Some n -> n | None -> "(toplevel)");
          it.expr it vb.pvb_expr;
          ctx.c_fn <- saved)
        vbs
    | _ -> default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

let summarize env (pm : parsed) =
  let ctx =
    { env; c_module = pm.p_name; c_fn = pm.p_name ^ ".(toplevel)";
      c_in_task = false; c_locks = []; c_events = []; c_allows = [] }
  in
  let it = iterator ctx in
  it.structure it pm.p_ast;
  let defined =
    List.concat_map
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.filter_map binding_name vbs
        | _ -> [])
      pm.p_ast
  in
  { m_name = pm.p_name;
    m_file = pm.p_file;
    m_roots =
      List.filter (fun r -> String.equal r.r_file pm.p_file)
        (List.rev env.root_list);
    m_events = List.rev ctx.c_events;
    m_defined = defined;
    m_exported = None;  (* filled by the engine when the .mli is read *)
    m_allows = ctx.c_allows }
