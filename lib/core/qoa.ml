open Ra_sim

type t = { t_m : Timebase.t; t_c : Timebase.t; mp_duration : Timebase.t }

let detection_probability t ~dwell =
  if t.t_m <= 0 then invalid_arg "Qoa: t_m must be positive";
  if dwell < 0 then invalid_arg "Qoa: negative dwell";
  Float.min 1.
    (float_of_int (Timebase.add dwell t.mp_duration) /. float_of_int t.t_m)

let min_dwell_always_detected t = Timebase.sub t.t_m t.mp_duration

let worst_case_detection_delay t =
  Timebase.add t.t_m (Timebase.add t.mp_duration t.t_c)

let on_demand ~mp_duration ~request_period =
  { t_m = request_period; t_c = request_period; mp_duration }
