(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe                 # run every experiment
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- table1 fig3  # run a subset

   DTR_SCALE=quick (default) runs reduced-size instances with bounded search
   budgets; DTR_SCALE=full restores the paper's sizes and budgets (very
   slow - the paper's own runs took hours per configuration). *)

let experiments =
  [
    ("table1", "Table I: critical vs full search accuracy", Experiments.table1);
    ("table1_load", "Sec. IV-E1: accuracy at high load", Experiments.table1_load);
    ("savings", "Sec. IV-E2: computational savings", Experiments.savings);
    ("table2", "Table II: robust vs regular across topologies", Experiments.table2);
    ("fig3", "Fig. 3: per-failure comparison (RandTopo)", Experiments.fig3);
    ("fig4", "Fig. 4: load spread after failures", Experiments.fig4);
    ("table3", "Table III: network size sweep", Experiments.table3);
    ("table4", "Table IV: mean degree sweep", Experiments.table4);
    ("fig5a", "Fig. 5(a): medium vs high load", Experiments.fig5a);
    ("table5", "Table V + Fig. 5(b): SLA bound sweep", Experiments.table5);
    ("fig5c", "Fig. 5(c): delay distribution in NearTopo", Experiments.fig5c);
    ("fig6ab", "Fig. 6(a,b): Gaussian traffic fluctuation", Experiments.fig6ab);
    ("fig6cd", "Fig. 6(c,d): download hot-spot surges", Experiments.fig6cd);
    ("fig7", "Fig. 7: node failures", Experiments.fig7);
    ("neartopo_resize", "Sec. V-B: NearTopo core resizing", Experiments.neartopo_resize);
    ("prob_failures", "Extension: probabilistic failure model", Experiments.prob_failures);
    ("multi_failure", "Extension: double link failures", Experiments.multi_failure);
    ("ablation_crit", "Ablation: selector comparison", Experiments.ablation_crit);
    ("ablation_tail", "Ablation: left-tail fraction", Experiments.ablation_tail);
    ("kernels", "Bechamel kernel micro-benchmarks", Kernels.run);
    ("parallel_sweep", "dtr_exec: sweep speedup at jobs 1/2/4", Kernels.parallel_sweep);
    ("failure_sweep", "dynamic-SPF repair vs from-scratch sweep", Kernels.failure_sweep);
    ("joint_sweep", "multi-arc repair on SRLG/two-link/cascade events", Kernels.joint_sweep);
    ("serve_replay", "dtr-serve event replay + warm vs cold re-optimize", Kernels.serve_replay);
    ("move_search", "pruned move pricing: early-abort warm start + Phase 2", Kernels.move_search);
  ]

let list_ids () =
  print_endline "available experiments:";
  List.iter (fun (id, doc, _) -> Printf.printf "  %-14s %s\n" id doc) experiments

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--list" ] -> list_ids ()
  | [] ->
      Printf.printf "DTR experiment harness (scale: %s)\n%!" Harness.scale.Harness.name;
      let t0 = Sys.time () in
      List.iter
        (fun (id, _, f) ->
          let t = Sys.time () in
          f ();
          Printf.printf "[%s done in %.1fs]\n%!" id (Sys.time () -. t))
        experiments;
      Printf.printf "\nall experiments done in %.1fs (CPU)\n" (Sys.time () -. t0)
  | ids ->
      List.iter
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some (_, _, f) -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; try --list\n" id;
              exit 1)
        ids
