let build ?mode g =
  let p, _rounds = Kbisim.stable_partition ?mode g in
  Index_graph.of_partition ?mode g ~cls:p.cls ~n_classes:p.n_classes
    ~k_of_class:(fun _ -> Index_graph.k_infinite)
    ~req_of_class:(fun _ -> Index_graph.k_infinite)

let bisimulation_depth g = snd (Kbisim.stable_partition g)
