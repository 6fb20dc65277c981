(** Terminal line plots so the runnable examples can show the figures
    without a graphics stack. *)

open Numerics

type series = { label : string; glyph : char; xs : Vec.t; ys : Vec.t }

val output : ?width:int -> ?height:int -> ?title:string -> out_channel -> series list -> unit
(** Write the rendered plot to an explicit channel (library code never
    writes to [stdout] implicitly — lint rule R5). *)
