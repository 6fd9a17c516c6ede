let build ?mode g ~k =
  if k < 0 then invalid_arg "A_k_index.build: k must be non-negative";
  let p = Kbisim.k_partition ?mode g ~k in
  Index_graph.of_partition ?mode g ~cls:p.cls ~n_classes:p.n_classes
    ~k_of_class:(fun _ -> k)
    ~req_of_class:(fun _ -> k)
