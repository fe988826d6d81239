module Store = Repdb_store.Store
module Value = Repdb_store.Value

type divergence = {
  item : int;
  site : int;
  primary_value : Value.t;
  replica_value : Value.t;
}

let check (c : Cluster.t) =
  let acc = ref [] in
  let placement = c.placement in
  for item = placement.n_items - 1 downto 0 do
    let primary_value = Store.read c.stores.(placement.primary.(item)) item in
    Array.iter
      (fun site ->
        let replica_value = Store.read c.stores.(site) item in
        if not (Value.equal primary_value replica_value) then
          acc := { item; site; primary_value; replica_value } :: !acc)
      placement.replicas.(item)
  done;
  !acc
