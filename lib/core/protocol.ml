module type S = sig
  type t

  val name : string
  val updates_replicas : bool
  val create : Cluster.t -> t
  val submit : t -> Repdb_txn.Txn.spec -> Repdb_txn.Txn.outcome
  val reconfigure : (t -> unit) option
end

type t = (module S)

let name (module P : S) = P.name

let variant (type a) ~name:new_name ~create:new_create (module P : S with type t = a) : t =
  (module struct
    include P

    let name = new_name
    let create = new_create
  end)
