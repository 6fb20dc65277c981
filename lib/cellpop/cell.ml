open Numerics

type t = { phase : float; phi_sst : float; cycle_minutes : float }

let draw_phi_sst (p : Params.t) rng =
  Rng.truncated_normal rng ~mean:p.mu_sst ~std:(Params.sst_std p) ~lo:0.02 ~hi:0.98

let draw_cycle_minutes (p : Params.t) rng =
  Rng.truncated_normal rng ~mean:p.mean_cycle_minutes ~std:(Params.cycle_std p)
    ~lo:(0.2 *. p.mean_cycle_minutes)
    ~hi:(3.0 *. p.mean_cycle_minutes)

let founder (p : Params.t) rng =
  let phi_sst = draw_phi_sst p rng in
  let cycle_minutes = draw_cycle_minutes p rng in
  let phase =
    match p.initial_condition with
    | Params.Synchronized_swarmer -> Rng.uniform rng ~lo:0.0 ~hi:phi_sst
    | Params.Uniform_phase -> Rng.float rng
  in
  { phase; phi_sst; cycle_minutes }

let swarmer_daughter (p : Params.t) rng =
  { phase = 0.0; phi_sst = draw_phi_sst p rng; cycle_minutes = draw_cycle_minutes p rng }

let stalked_daughter (p : Params.t) rng =
  let phi_sst = draw_phi_sst p rng in
  { phase = phi_sst; phi_sst; cycle_minutes = draw_cycle_minutes p rng }

let time_to_division c = (1.0 -. c.phase) *. c.cycle_minutes

let advance c dt =
  let phase = c.phase +. (dt /. c.cycle_minutes) in
  assert (phase <= 1.0 +. 1e-9);
  { c with phase = Float.min phase 1.0 }

let volume p c = Volume.eval p ~phi_sst:c.phi_sst c.phase

