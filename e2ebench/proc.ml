(* Child processes and what /proc says about them.

   Every child the benchmark starts is remembered here and killed and
   reaped at exit, whatever path the exit takes. *)

let children : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* The CPUs the runtime sees online. *)
let nproc () = Domain.recommended_domain_count ()

(* Pin [pid] to one CPU with taskset; false when that is refused. *)
let pin pid cpu =
  let null = devnull () in
  let status =
    try
      let p =
        Unix.create_process "taskset"
          [| "taskset"; "-p"; "-c"; string_of_int cpu; string_of_int pid |]
          null null null
      in
      snd (Unix.waitpid [] p)
    with Unix.Unix_error _ -> Unix.WEXITED 127
  in
  Unix.close null;
  status = Unix.WEXITED 0

(* /proc files report length 0: read until end of file. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            go ()
      in
      go ())

(* User + system CPU time of [pid] ("self" for this process), in ns.
   /proc/<pid>/schedstat counts it in ns; /proc/<pid>/stat only in
   clock ticks (USER_HZ = 100, fixed by the kernel ABI), the fallback
   where schedstat is missing. *)
let cpu_ns pid =
  match read_proc (Printf.sprintf "/proc/%s/schedstat" pid) with
  | s when String.index_opt s ' ' <> None ->
      int_of_string (String.sub s 0 (String.index s ' '))
  | _ | (exception Sys_error _) ->
      let s = read_proc (Printf.sprintf "/proc/%s/stat" pid) in
      (* Fields after the parenthesised command name: state is field 3,
         so utime (14) and stime (15) sit at offsets 11 and 12. *)
      let start = String.rindex s ')' + 2 in
      let f = Array.of_list (String.split_on_char ' ' (String.sub s start (String.length s - start))) in
      (int_of_string f.(11) + int_of_string f.(12)) * 10_000_000

(* Peak resident set size of [pid] in kB ([VmHWM]). *)
let vm_hwm_kb pid =
  let s = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* A UDP port on 127.0.0.1 that was free a moment ago. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close s;
  port

(* Wait up to [timeout] s for one line on [fd]. *)
let read_line_timeout fd ~timeout =
  let buf = Buffer.create 64 in
  let deadline = Unix.gettimeofday () +. timeout in
  let one = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd one 0 1 with
          | 0 -> None
          | _ when Bytes.get one 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get one 0);
              go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Start [argv] (optionally under taskset on [cpu]) with stdout on a
   pipe and wait for its first line.  Returns the pid and that line. *)
let spawn ?cpu argv ~ready_timeout =
  let argv =
    match cpu with
    | Some c -> Array.append [| "taskset"; "-c"; string_of_int c |] argv
    | None -> argv
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid = Unix.create_process argv.(0) argv null w null in
  Unix.close w;
  Unix.close null;
  children := pid :: !children;
  let line = read_line_timeout r ~timeout:ready_timeout in
  Unix.close r;
  match line with
  | Some l -> (pid, l)
  | None ->
      reap pid;
      failwith (Printf.sprintf "%s did not report ready" argv.(0))
