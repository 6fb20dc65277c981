(** Aligned text tables for the benchmark harness — each experiment prints
    the series a paper figure plots as rows of a table. *)

open Numerics

type t

val create : title:string -> headers:string list -> t

val add_row : t -> float array -> unit
val add_rows : t -> Vec.t list -> unit
(** Columns, transposed into rows (equal lengths required). *)

val output : ?precision:int -> out_channel -> t -> unit
(** Write the rendered table to an explicit channel. Library code never
    writes to [stdout] implicitly (lint rule R5); callers in [bin/] and
    [bench/] pass the channel they own. *)

