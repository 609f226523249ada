(* ssr_sim end to end: the report goldens and the usage errors.

   golden/cli/cases.txt lists one ssr_sim invocation per line, covering
   single runs and --trials batches, runs to stability and chaos soaks,
   the agent engine (interpreted and compiled) and the count engine, the
   ring and star topologies on both engines, and the loose protocol. The
   goldens were captured before ssr_sim and the fleet worker shared one
   run path; each case is re-run here and its stdout, exit code and
   --events file must match byte for byte. The only normalized figure is
   the kernel line's compile time. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let golden path = Test_ir.read_file (Filename.concat "golden/cli" path)

(* "kernel : compiled (459 live states, quotient, 1.7 ms compile)" ->
   "..., X ms compile)": wall time is the one thing a rerun may change. *)
let normalize report =
  let suffix = " ms compile)" in
  String.split_on_char '\n' report
  |> List.map (fun line ->
         if String.starts_with ~prefix:"kernel " line && String.ends_with ~suffix line then
           let stop = String.length line - String.length suffix in
           let start = String.rindex_from line (stop - 1) ' ' + 1 in
           String.sub line 0 start ^ "X" ^ suffix
         else line)
  |> String.concat "\n"

let with_tmp_dir f =
  let dir = Filename.temp_dir "cli_golden" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Runs ssr_sim with [args]; returns (exit code, stdout, stderr). *)
let run_ssr_sim ~dir args =
  let exe = Test_hotpath.ssr_sim () in
  let out_path = Filename.concat dir "stdout" and err_path = Filename.concat dir "stderr" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = open_w out_path and err = open_w err_path in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close err)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out err)
  in
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, Test_ir.read_file out_path, Test_ir.read_file err_path)

type case = { name : string; exit : int; events : string option; args : string list }

let cases () =
  String.split_on_char '\n' (golden "cases.txt")
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | name :: exit :: events :: args ->
               Some
                 {
                   name;
                   exit = int_of_string exit;
                   events = (if events = "-" then None else Some events);
                   args;
                 }
           | _ -> failwith ("golden/cli/cases.txt: malformed line: " ^ line))

let check_case c () =
  with_tmp_dir @@ fun dir ->
  let events_path = Filename.concat dir "events.jsonl" in
  let args = match c.events with None -> c.args | Some _ -> c.args @ [ "--events"; events_path ] in
  let code, out, _ = run_ssr_sim ~dir args in
  check_int (c.name ^ " exit code") c.exit code;
  Alcotest.(check string) (c.name ^ " report") (golden (c.name ^ ".txt")) (normalize out);
  Option.iter
    (fun file ->
      Alcotest.(check string) (c.name ^ " events") (golden file) (Test_ir.read_file events_path))
    c.events

(* Values the fleet already sheds at admission are usage errors on the
   command line too: a one-line message and exit 2, never an uncaught
   exception. *)
let usage_errors =
  [
    ("n = 1", [ "-n"; "1" ], {|{"id":"a","n":1}|});
    ("n = 0", [ "-n"; "0" ], {|{"id":"a","n":0}|});
    ( "negative history depth",
      [ "-p"; "sublinear"; "-H-1" ],
      {|{"id":"a","protocol":"sublinear","n":8,"h":-1}|} );
  ]

let test_usage_error (label, args, job_line) () =
  with_tmp_dir @@ fun dir ->
  let code, _, err = run_ssr_sim ~dir args in
  check_int (label ^ ": exit 2") 2 code;
  check_bool (label ^ ": one-line message") true
    (err <> "" && String.index_opt err '\n' = Some (String.length err - 1));
  check_bool (label ^ ": no uncaught exception") false
    (String.starts_with ~prefix:"ssr_sim: internal error" err);
  check_bool (label ^ ": the fleet sheds it too") true
    (Result.is_error (Fleet.Job.of_line job_line))

let suite =
  List.map
    (fun c -> Alcotest.test_case ("golden report: " ^ c.name) `Quick (check_case c))
    (cases ())
  @ List.map
      (fun ((label, _, _) as e) ->
        Alcotest.test_case ("usage error: " ^ label) `Quick (test_usage_error e))
      usage_errors
