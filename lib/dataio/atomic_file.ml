(* The one module allowed to open a final output path for writing (lint
   rule R9): everything durable goes through a same-directory temp file
   that is flushed, fsync'd and renamed over the destination, so readers
   and crash recovery only ever observe either the old or the complete
   new content. *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    let finally () = Unix.close fd in
    Fun.protect ~finally (fun () ->
        try Unix.fsync fd
        with Unix.Unix_error _ ->
          (* Some filesystems refuse fsync on a directory fd; the rename
             itself is still atomic, only its durability is best-effort. *)
          ())
  | exception Unix.Unix_error _ -> ()

let write path body =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path ^ ".") ".tmp"
  in
  match
    (* lint: allow R9 -- this is the atomic helper itself; [tmp] is a fresh
       temp file in the destination directory, renamed below *)
    let oc = open_out_bin tmp in
    let finally () = close_out_noerr oc in
    Fun.protect ~finally (fun () ->
        body oc;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    fsync_dir dir
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

