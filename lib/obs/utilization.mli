(** Domain-pool utilization from chunk telemetry.

    [lib/parallel] records one [{"ev":"sample","kind":"chunk",...}] event
    per executed chunk (fields [domain], [lo], [hi], [start], [stop])
    when a probe is installed; this module folds a recorded stream into
    per-domain busy fractions and a chunk-wall imbalance ratio — the
    numbers behind [deconv-cli trace utilization]. Pure aggregation over
    an event list: nothing here touches clocks or the pool. *)

type chunk = { domain : int; lo : int; hi : int; start_s : float; stop_s : float }

type domain_stat = {
  domain : int;
  chunks : int;
  items : int;  (** sum of [hi - lo] *)
  busy_s : float;  (** summed chunk wall time on this domain *)
  busy_fraction : float;
      (** [busy_s] over the fan-out span; in (0, 1] for any domain that
          executed work (1 when the span is zero-width) *)
}

type report = {
  domains : domain_stat list;  (** sorted by domain id *)
  chunk_count : int;
  span_s : float;  (** earliest chunk start to latest chunk stop *)
  mean_chunk_s : float;
  max_chunk_s : float;
  imbalance : float;
      (** max/mean chunk wall time; 1.0 when perfectly balanced or when
          every chunk is instantaneous *)
}

val chunk_of_sample : Export.sample -> chunk option
(** Decode one ["chunk"] sample; [None] for other kinds or malformed
    fields. *)

val chunks_of_events : Export.event list -> chunk list
(** Extract well-formed chunk samples (others are ignored). *)

val of_events : Export.event list -> report option
(** [of_chunks] over [chunks_of_events]. *)

val output : out_channel -> report -> unit
(** Render the per-domain table and imbalance summary. *)
