
type gene = {
  name : string;
  expression_class : [ `Swarmer | `Early_stalked | `Mid_cycle | `Late_predivisional ];
  profile : Gene_profile.t;
  peak_phase : float;
}

let pulse ~center ~width ~height ~baseline =
  Gene_profile.gaussian_pulse ~center ~width ~height ~baseline ()

(* Peak phases chosen inside the four class windows below; amplitudes and
   widths vary so no two genes are trivially identical. *)
let panel =
  [|
    (* Swarmer-stage genes: expressed right after birth. *)
    { name = "flgA"; expression_class = `Swarmer; peak_phase = 0.04;
      profile = pulse ~center:0.04 ~width:0.06 ~height:5.0 ~baseline:0.3 };
    { name = "pilX"; expression_class = `Swarmer; peak_phase = 0.08;
      profile = pulse ~center:0.08 ~width:0.05 ~height:3.0 ~baseline:0.2 };
    { name = "cheY"; expression_class = `Swarmer; peak_phase = 0.11;
      profile = pulse ~center:0.11 ~width:0.07 ~height:4.0 ~baseline:0.4 };
    (* Replication initiation around the SW->ST transition. *)
    { name = "dnaX"; expression_class = `Early_stalked; peak_phase = 0.22;
      profile = pulse ~center:0.22 ~width:0.08 ~height:6.0 ~baseline:0.5 };
    { name = "gcrB"; expression_class = `Early_stalked; peak_phase = 0.28;
      profile = pulse ~center:0.28 ~width:0.07 ~height:3.5 ~baseline:0.3 };
    { name = "repA"; expression_class = `Early_stalked; peak_phase = 0.34;
      profile = pulse ~center:0.34 ~width:0.09 ~height:4.5 ~baseline:0.4 };
    (* Mid-cycle division machinery (the ftsZ neighborhood). *)
    { name = "ftsZ*"; expression_class = `Mid_cycle; peak_phase = 0.45;
      profile = pulse ~center:0.45 ~width:0.09 ~height:8.0 ~baseline:0.3 };
    { name = "ftsQ*"; expression_class = `Mid_cycle; peak_phase = 0.52;
      profile = pulse ~center:0.52 ~width:0.10 ~height:5.0 ~baseline:0.5 };
    { name = "murB"; expression_class = `Mid_cycle; peak_phase = 0.58;
      profile = pulse ~center:0.58 ~width:0.08 ~height:4.0 ~baseline:0.4 };
    (* Late predivisional genes. *)
    { name = "ccrX"; expression_class = `Late_predivisional; peak_phase = 0.74;
      profile = pulse ~center:0.74 ~width:0.08 ~height:6.0 ~baseline:0.4 };
    { name = "parZ"; expression_class = `Late_predivisional; peak_phase = 0.82;
      profile = pulse ~center:0.82 ~width:0.07 ~height:3.0 ~baseline:0.3 };
    { name = "podJ*"; expression_class = `Late_predivisional; peak_phase = 0.90;
      profile = pulse ~center:0.90 ~width:0.06 ~height:4.5 ~baseline:0.2 };
  |]

let class_index g =
  match g.expression_class with
  | `Swarmer -> 0
  | `Early_stalked -> 1
  | `Mid_cycle -> 2
  | `Late_predivisional -> 3

(* Window edges halfway between the extreme peaks of adjacent classes. *)
let class_boundaries = [| 0.165; 0.395; 0.66 |]

