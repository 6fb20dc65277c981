(** End-to-end validation pipeline (paper §4.1): take a known single-cell
    profile f(φ), push it through the forward model to simulated
    population-level data, add noise, deconvolve, and compare the estimate
    with the truth. *)

open Numerics

type forward_mode =
  | Same_kernel
      (** generate the data with the very kernel used for inversion — an
          'inverse crime' setting, useful for exact-recovery unit tests *)
  | Independent_kernel
      (** generate the data with an independently simulated kernel (fresh
          Monte-Carlo randomness) *)
  | Monte_carlo
      (** generate the data as the volume-weighted single-cell average over
          an independent population — the most faithful forward model; the
          default *)

type selection = [ `Gcv | `Kfold of int | `Lcurve | `Fixed of float ]

type config = {
  data_params : Cellpop.Params.t;  (** population model generating the data *)
  inversion_params : Cellpop.Params.t option;
      (** model assumed by the deconvolution (kernel + constraints);
          defaults to [data_params]. Setting these apart drives the
          volume-model ablation (E6). *)
  n_cells_kernel : int;
  n_cells_data : int;
  n_phi : int;
  times : Vec.t;  (** measurement times, minutes *)
  num_knots : int;  (** natural-spline knots (basis size) *)
  noise : Noise.model;
  selection : selection;
  use_positivity : bool;
  use_conservation : bool;
  use_rate_continuity : bool;
  forward_mode : forward_mode;
  seed : int;
  measurement_fault : Vec.t Robust.Fault.t option;
      (** optional fault injected into the noisy measurements before the
          inversion — the end-to-end robustness test hook *)
}

val default_config : times:Vec.t -> config
(** Paper-2011 population parameters, 4000-cell kernel, 201 phase bins,
    12 knots, no noise, GCV selection, all constraints on, Monte-Carlo
    forward, seed 1. Every run smooths its kernels over 5 phase bins and
    solves through {!Solver.solve_robust} at {!Solver.default_policy}. *)

type run = {
  config : config;
  kernel : Cellpop.Kernel.t;
  phases : Vec.t;
  truth : Vec.t;  (** f on the phase grid *)
  clean : Vec.t;  (** noiseless population signal G(t_m) *)
  noisy : Vec.t;  (** measured data after noise *)
  sigmas : Vec.t;
  problem : Problem.t;
  lambda : float;
  estimate : Solver.estimate;
  report : Robust.Report.t;  (** what solve_robust did to produce [estimate] *)
  recovery : Metrics.comparison;
}

val run : config -> profile:(float -> float) -> run
(** The inversion routes through {!Solver.solve_robust}: λ selection runs
    on a repaired copy of the problem (falling back to λ = 1e-4 when every
    candidate is non-finite) and the robust solve repairs faulty data.
    Raises {!Robust.Error.Error} with that solve's typed error when its one
    constrained attempt cannot produce a finite estimate. *)

val deconvolved_vs_minutes : run -> Vec.t * Vec.t
(** The deconvolved profile with phase scaled to minutes by the mean cycle
    time (the paper's Fig. 5 'simulated time'). *)
