include Obs_json
